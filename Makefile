.PHONY: all build test check lint bench bench-smoke gauntlet-smoke topo-smoke acct-smoke names-smoke adversary-smoke clean

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

# The E16 survivability gauntlet alone, scaled down: fault injection,
# reconvergence measurement and the replay-determinism check end to end.
gauntlet-smoke:
	dune exec bench/main.exe -- --smoke --only E16 --out=_smoke

# The E17 scale engine alone, scaled down: builds the 10^4- and
# 10^5-host region topologies, drives cross-region traffic, asserts
# zero loss and aggregation end to end.
topo-smoke:
	dune exec bench/main.exe -- --smoke --only E17 --out=_smoke

# The E20 sketch accounting experiment alone, scaled down: off / sketch /
# exact over the same deterministic load, error and memory comparison
# end to end.  (Smoke-scale numbers are not the gated contract; the gate
# in bin/check.sh reads the committed full-run BENCH_accounting.json.)
acct-smoke:
	dune exec bench/main.exe -- --smoke --only E20 --out=_smoke

# The E21 name/service layer alone, scaled down: root + region
# authorities, caching resolvers, anycast replicas with a crash-driven
# failover and resolver amnesia, end to end.  (Smoke-scale numbers are
# not the gated contract; the gate in bin/check.sh reads the committed
# full-run BENCH_names.json.)
names-smoke:
	dune exec bench/main.exe -- --smoke --only E21 --out=_smoke

# The E18 adversarial conformance experiment alone, scaled down: the
# seeded hostile peer forging RSTs, in-window SYNs and ACK probes into a
# live transfer, plus the >64 KiB-window LFN run.  (Smoke-scale numbers
# are not the gated contract; the gate in bin/check.sh reads the
# committed full-run BENCH_tcp_adversary.json.)
adversary-smoke:
	dune exec bench/main.exe -- --smoke --only E18 --out=_smoke

clean:
	dune clean
