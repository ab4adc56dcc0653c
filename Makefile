.PHONY: all build test check profile perfdiff journal clean

all: build

build:
	dune build

test:
	dune runtest

# Wall-clock profile of the Fig. 4 run: hotspot table, every metrics
# gauge with its high watermark and the backpressure stalls on stdout,
# flamegraph-ready
# PROFILE_fig4.folded and machine-readable PROFILE_fig4.profile.json
# on disk. Each wall-time figure is the median of three runs, so the
# perfdiff gate below is not at the mercy of one noisy run.
profile:
	dune exec bin/netrepro.exe -- profile fig4 --quick --runs 3

# Compare the current Fig. 4 profile against the checked-in baseline;
# exits non-zero when any hotspot regressed past 10% (event-count
# drift is deterministic and flags on any machine; wall-time drift is
# gated by noise floors).
perfdiff: profile
	dune exec bin/netrepro.exe -- perfdiff \
	  baseline/fig4.profile.json PROFILE_fig4.profile.json --max-regress 10

# Flight-recorder smoke: record a journal and replay it (every dispatch
# re-verified against the recording) for Fig. 4 (Baseline and
# Scenario 1), for Fig. 6, whose Scenario 2 runs take the shared umtx
# and run the app crossing window, for the seeded chaos run, a gated
# entry of the same registry, and for the quick fleet, whose churn
# through hundreds of TIME_WAIT sockets and epoll registrations no
# other journaled run exercises. Then record Fig. 4 again with
# metrics, flow tracing and 1-in-1 sampling on: instruments must not
# perturb a single dispatch, so the two journals must be byte-identical
# (cmp) and jdiff equivalent. Last, record the fleet again with
# randomized hash tables (OCAMLRUNPARAM=R): no dispatch may depend on a
# table's layout, so that journal must be byte-identical to the plain
# one.
journal:
	@for run in "fig4 --quick --iterations 300" \
	            "fig6 --quick --iterations 300" "chaos --seed 42 --quick" \
	            "fleet --seed 42 --quick"; do \
	  set -- $$run; j=/tmp/netrepro-check.$$1.journal.jsonl; \
	  dune exec bin/netrepro.exe -- $$run --journal $$j > /dev/null || exit 1; \
	  dune exec bin/netrepro.exe -- replay $$j || exit 1; \
	done
	dune exec bin/netrepro.exe -- fig4 --quick --iterations 300 \
	  --journal /tmp/netrepro-check.fig4-instrumented.journal.jsonl \
	  --metrics /tmp/netrepro-check.fig4.prom \
	  --flow-trace /tmp/netrepro-check.fig4.trace.json \
	  --sample-every 1 > /dev/null
	cmp /tmp/netrepro-check.fig4.journal.jsonl \
	  /tmp/netrepro-check.fig4-instrumented.journal.jsonl
	dune exec bin/netrepro.exe -- jdiff /tmp/netrepro-check.fig4.journal.jsonl \
	  /tmp/netrepro-check.fig4-instrumented.journal.jsonl
	OCAMLRUNPARAM=R dune exec bin/netrepro.exe -- fleet --seed 42 --quick \
	  --journal /tmp/netrepro-check.fleet-randomized.journal.jsonl > /dev/null
	cmp /tmp/netrepro-check.fleet.journal.jsonl \
	  /tmp/netrepro-check.fleet-randomized.journal.jsonl
	@echo "journal: record/replay OK (fig4, fig6, chaos, fleet); instruments neutral on fig4; fleet independent of hash seeds"

# Full gate, and the whole of CI: build, unit/property tests (plus the
# edgebench --smoke run, the zero-copy regression gates — the Fig. 4
# data path must stay within its minor- and direct major-heap
# allocation budgets per packet — and the seed-42 goldens of the gated
# runs), then the smoke runs — Table II with metrics enabled must
# expose the cross-layer instrument families, ring, pool and event-heap
# gauges included, in the Prometheus dump, Fig. 5 with flow tracing
# enabled must produce an analyzable trace covering the measurement
# stages, the red-team corpus, the seeded chaos run, the capability
# audit and the fleet observatory must each pass their gates (each
# exits non-zero otherwise), the profiled Fig. 4 run must report its
# measured wall time and hold against the checked-in perf baseline,
# recorded Fig. 4, Fig. 6, chaos and fleet journals must replay clean, and a
# Fig. 4 journal recorded with every instrument on must equal the plain
# one.
check:
	dune build
	dune runtest
	dune exec bin/netrepro.exe -- table2 --quick --metrics /tmp/netrepro-check.prom > /dev/null
	@for m in trampoline_crossings_total capability_faults_total \
	          dpdk_bursts_total nic_dma_bytes_total \
	          netstack_rx_frames_total syscalls_total \
	          nic_rx_ring dpdk_mbuf_in_use event_heap; do \
	  grep -q "$$m" /tmp/netrepro-check.prom \
	    || { echo "check: $$m missing from metrics dump"; exit 1; }; \
	  echo "check: $$m present"; \
	done
	dune exec bin/netrepro.exe -- fig5 --quick --iterations 500 \
	  --flow-trace /tmp/netrepro-check.trace.json --sample-every 8 > /dev/null
	dune exec bin/netrepro.exe -- analyze /tmp/netrepro-check.trace.json \
	  > /tmp/netrepro-check.analyze.txt
	@for s in tramp_in umtx_wait ff_write clock_ret wire; do \
	  grep -q "$$s" /tmp/netrepro-check.analyze.txt \
	    || { echo "check: stage $$s missing from flow-trace analysis"; exit 1; }; \
	  echo "check: stage $$s present"; \
	done
	@for exp in attack chaos audit fleet; do \
	  dune exec bin/netrepro.exe -- $$exp --quick \
	    > /tmp/netrepro-check.$$exp.txt \
	    || { cat /tmp/netrepro-check.$$exp.txt; \
	         echo "check: $$exp run failed its gates"; exit 1; }; \
	  echo "check: $$exp gates hold"; \
	done
	$(MAKE) profile > /tmp/netrepro-check.profile.txt \
	  || { cat /tmp/netrepro-check.profile.txt; \
	       echo "check: profile run failed"; exit 1; }
	@grep -q "total measured:" /tmp/netrepro-check.profile.txt \
	  || { echo "check: profile produced no hotspot total"; exit 1; }
	@echo "check: fig4 profile measured (see PROFILE_fig4.profile.json)"
	$(MAKE) perfdiff
	@echo "check: fig4 profile within 10% of checked-in baseline"
	$(MAKE) journal
	@echo "check: journals replay clean; instrumented fig4 journal identical"
	@echo "check: OK"

clean:
	dune clean
