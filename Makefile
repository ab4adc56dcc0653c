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

# Red-team smoke: the seeded hostile-packet corpus against all three
# scenarios, twice. The run must be byte-identical across the two
# invocations (text and JSON), every attack in the CHERI scenarios
# must end caught-and-attributed, and the overall containment verdict
# must be PASS (baseline leak recorded, sibling goodput >= 0.9x,
# mutex free, pool recovered). Exits non-zero otherwise.
attack:
	dune exec bin/netrepro.exe -- attack net --seed 42 --quick \
	  --json /tmp/netrepro-attack.1.json > /tmp/netrepro-attack.1.txt \
	  || { cat /tmp/netrepro-attack.1.txt; \
	       echo "attack: run failed containment gates"; exit 1; }
	dune exec bin/netrepro.exe -- attack net --seed 42 --quick \
	  --json /tmp/netrepro-attack.2.json > /tmp/netrepro-attack.2.txt \
	  || { cat /tmp/netrepro-attack.2.txt; \
	       echo "attack: second run failed containment gates"; exit 1; }
	@sed 's|/tmp/netrepro-attack.[12].json|JSON|' \
	  /tmp/netrepro-attack.1.txt > /tmp/netrepro-attack.1.norm.txt
	@sed 's|/tmp/netrepro-attack.[12].json|JSON|' \
	  /tmp/netrepro-attack.2.txt > /tmp/netrepro-attack.2.norm.txt
	cmp /tmp/netrepro-attack.1.norm.txt /tmp/netrepro-attack.2.norm.txt
	cmp /tmp/netrepro-attack.1.json /tmp/netrepro-attack.2.json
	@echo "attack: report byte-identical across two runs"
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
	dune exec bin/netrepro.exe -- fleet --seed 42 --quick \
	  --json /tmp/netrepro-fleet.1.fleet.json > /tmp/netrepro-fleet.1.txt \
	  || { cat /tmp/netrepro-fleet.1.txt; \
	       echo "fleet: run failed SLO gates"; exit 1; }
	dune exec bin/netrepro.exe -- fleet --seed 42 --quick \
	  --json /tmp/netrepro-fleet.2.fleet.json > /tmp/netrepro-fleet.2.txt \
	  || { cat /tmp/netrepro-fleet.2.txt; \
	       echo "fleet: second run failed SLO gates"; exit 1; }
	@sed 's|/tmp/netrepro-fleet.[12].fleet.json|JSON|' \
	  /tmp/netrepro-fleet.1.txt > /tmp/netrepro-fleet.1.norm.txt
	@sed 's|/tmp/netrepro-fleet.[12].fleet.json|JSON|' \
	  /tmp/netrepro-fleet.2.txt > /tmp/netrepro-fleet.2.norm.txt
	cmp /tmp/netrepro-fleet.1.norm.txt /tmp/netrepro-fleet.2.norm.txt
	cmp /tmp/netrepro-fleet.1.fleet.json /tmp/netrepro-fleet.2.fleet.json
	@echo "fleet: report byte-identical across two runs"
	@grep -q "verdict: PASS" /tmp/netrepro-fleet.1.txt \
	  || { echo "fleet: SLO verdict not PASS"; exit 1; }
	@grep -c "\[PASS\]" /tmp/netrepro-fleet.1.txt | grep -q "^4$$" \
	  || { echo "fleet: expected 4 passing SLO gates"; exit 1; }
	@echo "fleet: 64 tenants, all SLO gates PASS"

# Wall-clock profile of the Fig. 4 run: hotspot table, capacity
# watermarks and backpressure stalls on stdout, flamegraph-ready
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

# Flight-recorder smoke: record a Fig. 4 journal, replay it (every
# dispatch re-verified against the recording), and jdiff it against
# itself (must report equivalence). Exercises the full record ->
# verify -> diff loop end to end.
journal:
	dune exec bin/netrepro.exe -- fig4 --quick --iterations 300 \
	  --journal /tmp/netrepro-check.journal.jsonl > /dev/null
	dune exec bin/netrepro.exe -- replay /tmp/netrepro-check.journal.jsonl
	dune exec bin/netrepro.exe -- jdiff \
	  /tmp/netrepro-check.journal.jsonl /tmp/netrepro-check.journal.jsonl
	@echo "journal: record/replay/jdiff round-trip OK"

# Full gate, and the whole of CI: build, unit/property tests (plus the
# edgebench --smoke run, and the zero-copy regression gate: the Fig. 4
# data path must stay within its minor-allocation budget per packet),
# then the smoke runs — Table II with metrics enabled must expose the
# cross-layer instrument families in the Prometheus dump, Fig. 5 with
# flow tracing enabled must produce an analyzable trace covering the
# measurement stages, the seeded chaos run must attribute or recover
# every injected fault, the capability audit must find zero invariant
# violations on the stock scenarios, the red-team packet corpus
# (attack) and the fleet observatory (fleet) must each be
# byte-identical across two runs and pass their gates, the profiled
# Fig. 4 run must attribute its wall time and hold against the
# checked-in perf baseline, and a recorded Fig. 4 journal must replay
# clean and jdiff equivalent against itself.
check:
	dune build
	dune runtest
	dune exec bin/netrepro.exe -- table2 --quick --metrics /tmp/netrepro-check.prom > /dev/null
	@for m in trampoline_crossings_total capability_faults_total \
	          dpdk_bursts_total nic_dma_bytes_total \
	          netstack_rx_frames_total syscalls_total; do \
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
