.PHONY: all build test check audit attack fleet profile perfdiff journal clean

all: build

build:
	dune build

test:
	dune runtest

# Capability provenance audit: stock scenarios under the invariant
# checker plus the attack-surface report (exit non-zero on any
# violation or a Scenario 2 surface not smaller than Scenario 1's).
audit:
	dune exec bin/netrepro.exe -- audit --quick

# Run one report command twice with --json: a failing run prints its
# output and fails the target, and the two runs' text (JSON path
# normalised) and JSON must be byte-identical.
# $(1): target and file stem, $(2): netrepro arguments, $(3): JSON file
# suffix, $(4): the gates a failing run failed.
define run_twice
	dune exec bin/netrepro.exe -- $(2) \
	  --json /tmp/netrepro-$(1).1.$(3) > /tmp/netrepro-$(1).1.txt \
	  || { cat /tmp/netrepro-$(1).1.txt; \
	       echo "$(1): run failed $(4)"; exit 1; }
	dune exec bin/netrepro.exe -- $(2) \
	  --json /tmp/netrepro-$(1).2.$(3) > /tmp/netrepro-$(1).2.txt \
	  || { cat /tmp/netrepro-$(1).2.txt; \
	       echo "$(1): second run failed $(4)"; exit 1; }
	@sed 's|/tmp/netrepro-$(1).[12].$(3)|JSON|' \
	  /tmp/netrepro-$(1).1.txt > /tmp/netrepro-$(1).1.norm.txt
	@sed 's|/tmp/netrepro-$(1).[12].$(3)|JSON|' \
	  /tmp/netrepro-$(1).2.txt > /tmp/netrepro-$(1).2.norm.txt
	cmp /tmp/netrepro-$(1).1.norm.txt /tmp/netrepro-$(1).2.norm.txt
	cmp /tmp/netrepro-$(1).1.$(3) /tmp/netrepro-$(1).2.$(3)
	@echo "$(1): report byte-identical across two runs"
endef

# Red-team smoke: the seeded hostile-packet corpus against all three
# scenarios, twice. The run must be byte-identical across the two
# invocations (text and JSON), every attack in the CHERI scenarios
# must end caught-and-attributed, and the overall containment verdict
# must be PASS (baseline leak recorded, sibling goodput >= 0.9x,
# mutex free, pool recovered). Exits non-zero otherwise.
attack:
	$(call run_twice,attack,attack net --seed 42 --quick,json,containment gates)
	@grep -q "caught-and-attributed (CHERI scenarios): 100.0%" \
	  /tmp/netrepro-attack.1.txt \
	  || { echo "attack: CHERI scenarios let an attack through"; exit 1; }
	@grep -q "verdict: PASS" /tmp/netrepro-attack.1.txt \
	  || { echo "attack: containment verdict not PASS"; exit 1; }
	@echo "attack: 100% caught-and-attributed, containment PASS"

# Fleet tenancy smoke: the 64-tenant churn observatory, twice. The
# report must be byte-identical across the two invocations (text and
# JSON), and every SLO gate — completion-ratio fairness, FCT p99.9
# budget, 100% drop attribution, telescoping stage decomposition —
# must hold (the run exits non-zero otherwise).
fleet:
	$(call run_twice,fleet,fleet --seed 42 --quick,fleet.json,SLO gates)
	@grep -q "verdict: PASS" /tmp/netrepro-fleet.1.txt \
	  || { echo "fleet: SLO verdict not PASS"; exit 1; }
	@grep -c "\[PASS\]" /tmp/netrepro-fleet.1.txt | grep -q "^4$$" \
	  || { echo "fleet: expected 4 passing SLO gates"; exit 1; }
	@echo "fleet: 64 tenants, all SLO gates PASS"

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

# Flight-recorder smoke: record a journal, replay it (every dispatch
# re-verified against the recording), and jdiff it against itself (must
# report equivalence). Exercises the full record -> verify -> diff loop
# end to end on Fig. 4 (Baseline and Scenario 1) and on Fig. 6, whose
# Scenario 2 runs take the shared umtx and run the app crossing window.
journal:
	@for exp in fig4 fig6; do \
	  j=/tmp/netrepro-check.$$exp.journal.jsonl; \
	  dune exec bin/netrepro.exe -- $$exp --quick --iterations 300 \
	    --journal $$j > /dev/null || exit 1; \
	  dune exec bin/netrepro.exe -- replay $$j || exit 1; \
	  dune exec bin/netrepro.exe -- jdiff $$j $$j || exit 1; \
	done
	@echo "journal: record/replay/jdiff round-trip OK (fig4, fig6)"

# Full gate, and the whole of CI: build, unit/property tests (plus the
# edgebench --smoke run, and the zero-copy regression gates: the Fig. 4
# data path must stay within its minor- and direct major-heap
# allocation budgets per packet),
# then the smoke runs — Table II with metrics enabled must expose the
# cross-layer instrument families, ring, pool and event-heap gauges
# included, in the Prometheus dump, Fig. 5 with
# flow tracing enabled must produce an analyzable trace covering the
# measurement stages, the seeded chaos run must attribute or recover
# every injected fault, the capability audit must find zero invariant
# violations on the stock scenarios, the red-team packet corpus
# (attack) and the fleet observatory (fleet) must each be
# byte-identical across two runs and pass their gates, the profiled
# Fig. 4 run must attribute its wall time and hold against the
# checked-in perf baseline, and recorded Fig. 4 and Fig. 6 journals must
# replay clean and jdiff equivalent against themselves.
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
	dune exec bin/netrepro.exe -- chaos --seed 42 --quick \
	  > /tmp/netrepro-check.chaos.txt \
	  || { cat /tmp/netrepro-check.chaos.txt; \
	       echo "check: chaos run failed"; exit 1; }
	@grep -q "fault attribution: 100.0%" /tmp/netrepro-check.chaos.txt \
	  || { echo "check: chaos attribution below 100%"; exit 1; }
	@grep -q "unrecovered faults: 0" /tmp/netrepro-check.chaos.txt \
	  || { echo "check: chaos left unrecovered faults"; exit 1; }
	@echo "check: chaos attribution 100%, no unrecovered faults"
	dune exec bin/netrepro.exe -- audit --quick --seed 42 \
	  > /tmp/netrepro-check.audit.txt \
	  || { cat /tmp/netrepro-check.audit.txt; \
	       echo "check: audit run failed"; exit 1; }
	@grep -q "invariant violations (stock scenarios): 0" \
	  /tmp/netrepro-check.audit.txt \
	  || { echo "check: audit found invariant violations"; exit 1; }
	@echo "check: capability audit clean on stock scenarios"
	$(MAKE) attack
	@echo "check: red-team corpus contained and attributed"
	$(MAKE) fleet
	@echo "check: fleet tenancy observatory deterministic, SLO gates hold"
	$(MAKE) profile > /tmp/netrepro-check.profile.txt \
	  || { cat /tmp/netrepro-check.profile.txt; \
	       echo "check: profile run failed"; exit 1; }
	@grep -q "attributed:" /tmp/netrepro-check.profile.txt \
	  || { echo "check: profile produced no attribution line"; exit 1; }
	@echo "check: fig4 profile attributed (see PROFILE_fig4.profile.json)"
	$(MAKE) perfdiff
	@echo "check: fig4 profile within 10% of checked-in baseline"
	$(MAKE) journal
	@echo "check: journal record/replay/jdiff round-trip clean"
	@echo "check: OK"

clean:
	dune clean
