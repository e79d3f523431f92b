type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq) [@@fastpath]

let grow t =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 16 else cap * 2 in
  (* The placeholder entry below is never read: [size] guards access. *)
  let nd = Array.make ncap t.data.(0) in
  Array.blit t.data 0 nd 0 t.size;
  t.data <- nd

let push t ~key ~seq value =
  let e = { key; seq; value } in
  if t.size = Array.length t.data then
    if t.size = 0 then t.data <- Array.make 16 e else grow t;
  t.data.(t.size) <- e;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less t.data.(!i) t.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.data.(!i) in
    t.data.(!i) <- t.data.(parent);
    t.data.(parent) <- tmp;
    i := parent
  done

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && less t.data.(l) t.data.(!smallest) then smallest := l;
    if r < t.size && less t.data.(r) t.data.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.data.(!i) in
      t.data.(!i) <- t.data.(!smallest);
      t.data.(!smallest) <- tmp;
      i := !smallest
    end
    else continue := false
  done
[@@fastpath]

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t
    end;
    Some (top.key, top.seq, top.value)
  end
