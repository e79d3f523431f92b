.PHONY: all build test check lint bench bench-smoke clean

all: build

build:
	dune build

test:
	dune runtest

check:
	bin/check.sh

# Static analysis: wire layouts, fast-path allocation freedom,
# observability totality, comparison and match hygiene (bin/lint/).
# bench/, examples/ and perf/ get the seeded-RNG rule only: the replay
# and benchmark run digests rely on it.
lint:
	dune build bin/lint/catenet_lint.exe
	./_build/default/bin/lint/catenet_lint.exe --allow bin/lint/lint.allow \
	  $$(find lib -name '*.ml' | sort) \
	  $$(find _build/default/lib -name '*.cmt' | grep -v '__\.cmt$$' | sort)
	./_build/default/bin/lint/catenet_lint.exe --rng-only \
	  $$(find bench examples perf -name '*.ml' | sort)

bench:
	dune exec bench/main.exe

# Scaled-down pass over every experiment: proves the benches still build
# and run in seconds, without overwriting the real BENCH_*.json numbers.
bench-smoke:
	dune exec bench/main.exe -- --smoke --out=_smoke

clean:
	dune clean
