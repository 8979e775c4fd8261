.PHONY: check check-fast test bench trace-demo profile full-results

# Experiment to profile with `make profile` (any id from cf-bench -list).
PROFILE_EXP ?= fig3

# Full gate: vet + build + race-enabled tests (includes the 100-scenario
# fault-injection soak).
check:
	./scripts/check.sh

# Fast gate: vet + build + -short tests. Sweeps are skipped, but the
# overload experiment still exercises its smallest sweep point and the
# batching smoke + burst-cap-1 determinism gate run, so the
# graceful-degradation and batched-datapath contracts stay covered on
# every run.
check-fast:
	go vet ./...
	go build ./...
	go test -short ./...

# Quick loop: skips the soak and other -short-gated sweeps.
test:
	go test -short ./...

# Regenerate full_results.txt: every registered experiment at Full scale,
# with the wall-clock "(<id> took Ns)" lines stripped so the file is
# byte-stable across runs and hosts. The file is written even when a shape
# check fails (its FAIL lines are part of the record); the target then
# exits with cf-bench's failure status.
full-results:
	mkdir -p artifacts
	go run ./cmd/cf-bench -exp all > artifacts/full_results.raw; status=$$?; \
	sed '/^([a-z0-9-]* took [0-9.]*s)$$/d' artifacts/full_results.raw | cat -s > full_results.txt; \
	exit $$status

# The repository benchmark: every workload in BENCHMARK.json, untraced
# then traced, into artifacts/bench/ (see bench/README.md; SEED and
# RUN_SECONDS override the defaults).
bench:
	bash bench/run.sh

# Profile one experiment's serial hot loop (default fig3; override with
# PROFILE_EXP=fig5 etc.). Writes artifacts/<exp>-{cpu,mem}.prof and prints
# the top CPU consumers. Drill in with:
#   go tool pprof artifacts/$(PROFILE_EXP)-cpu.prof
#   go tool pprof -sample_index=alloc_objects artifacts/$(PROFILE_EXP)-mem.prof
profile:
	mkdir -p artifacts
	go run ./cmd/cf-bench -exp $(PROFILE_EXP) -quick -parallel 1 \
		-cpuprofile artifacts/$(PROFILE_EXP)-cpu.prof \
		-memprofile artifacts/$(PROFILE_EXP)-mem.prof
	go tool pprof -top -nodecount 20 artifacts/$(PROFILE_EXP)-cpu.prof

# Traced overload run: writes artifacts/trace-trace.json, a Chrome
# trace-event file of per-request span timelines (open it in
# chrome://tracing or https://ui.perfetto.dev).
trace-demo:
	go run ./cmd/cf-bench -exp trace -quick -trace artifacts
