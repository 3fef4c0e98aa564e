GO ?= go

.PHONY: ci vet build test race bench bench-smoke serve-bench serve-smoke swap-smoke shard-smoke stream-smoke stream-soak chaos fuzz fleet serve profile

## ci: the full tier-1 + hygiene gate (what .github/workflows/ci.yml's main
## job runs step by step); bench-smoke runs the GEMM kernels a few iterations
## so a kernel regression (or an asm/portable divergence) breaks CI loudly,
## not just slowly. Deliberately NOT `bench`: that regenerates (and dirties)
## the committed BENCH_serve.json, which is a release chore, not a gate.
ci: vet build race chaos bench-smoke serve-smoke swap-smoke shard-smoke stream-smoke

## bench-smoke: quick kernel-level regression tripwire over the packed GEMM
## benchmarks (10 iterations — catches crashes and gross slowdowns cheaply);
## the -run leg prints the dispatch report and asserts the selected family is
## avx2 on AVX2-capable boxes (TestSelectedKernel skips elsewhere), so a
## silent fall-back to the SSE2 kernels breaks CI instead of just perf. The
## layers leg runs inference Forward of DroNet's layer 00/02 convolutions and
## the 8x512² max-pool at the 512 px serving shapes, so a lowering or pooling
## regression shows in the log next to the kernel numbers
bench-smoke:
	$(GO) test -run 'TestKernelDispatchInfo|TestSelectedKernel' -v -bench Gemm -benchtime 10x ./internal/tensor/
	$(GO) test -run '^$$' -bench 'ConvForward|MaxPool' -benchtime 10x ./internal/layers/

## vet: static analysis plus the gofmt cleanliness gate — unformatted files
## fail the build with their names listed
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
	    echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the race leg also shuffles test execution order so the lifecycle
## suite can't hide an ordering dependency behind source order
race:
	$(GO) test -race -shuffle=on ./...

## bench: one-iteration smoke pass over every benchmark (catches bit-rot,
## not performance; use `go test -bench . -benchtime 1s` for real numbers),
## then the serving throughput run that regenerates the extended fp32+int8
## BENCH_serve.json
bench: serve-bench
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## serve-bench: drive the micro-batching service with concurrent synthetic
## clients — once at fp32, once at int8 — and write BENCH_serve.json (agg
## FPS per precision, p50/p99 latency, batch-size histogram, and the
## fp32-vs-int8 detection-agreement score) so the serving perf trajectory is
## tracked per-commit; the proxy leg then spawns a two-shard fleet and
## merges the "sharded" section (client throughput, fleet rollup, per-shard
## balance) into the same report
serve-bench:
	$(GO) run ./cmd/dronet-serve -selfbench -size 96 -scale 0.25 -workers 2 \
	    -bench-clients 8 -bench-requests 25 -bench-out BENCH_serve.json \
	    -models "low=dronet:64:int8:150,high=dronet:96:fp32"
	$(GO) build -o bin/dronet-serve ./cmd/dronet-serve
	$(GO) run ./cmd/dronet-proxy -selfbench -spawn 2 -serve-bin bin/dronet-serve \
	    -size 96 -scale 0.25 -workers 2 -bench-cameras 12 -bench-requests 25 \
	    -bench-out BENCH_serve.json

## serve-smoke: boot the real dronet-serve binary on a random port — once per
## precision (fp32, then -precision int8 with startup calibration), then once
## as a routed two-model registry — POST a synthetic frame to every endpoint,
## assert 200s with well-formed detection JSON, the right precision label and
## the routing matrix (explicit/altitude/404), then SIGTERM-drain it
## (examples/serveclient is the driver)
serve-smoke:
	$(GO) build -o bin/dronet-serve ./cmd/dronet-serve
	$(GO) run ./examples/serveclient -server bin/dronet-serve
	$(GO) run ./examples/serveclient -server bin/dronet-serve -precision int8
	$(GO) run ./examples/serveclient -server bin/dronet-serve \
	    -models "low=dronet:64:int8:150,high=dronet:96:fp32"

## swap-smoke: boot the real dronet-serve binary with its admin listener and
## exercise the live model lifecycle — hot add, two atomic weight swaps (one
## on the pool carrying background traffic), remove — asserting the data
## plane never returns anything but 200/429 (examples/serveclient -swap is
## the driver)
swap-smoke:
	$(GO) build -o bin/dronet-serve ./cmd/dronet-serve
	$(GO) run ./examples/serveclient -server bin/dronet-serve -size 64 -swap
	$(GO) run ./examples/serveclient -server bin/dronet-serve -size 64 -swap \
	    -models "low=dronet:64:int8:150,high=dronet:96:fp32::2"

## shard-smoke: boot two real dronet-serve shard processes behind a real
## dronet-proxy and walk the sharded tier — camera affinity, fleet metrics
## aggregation with shard identity labels, then kill -9 one shard under
## traffic asserting only 200/429/503, ejection and failover to the
## survivor (examples/serveclient -sharded is the driver)
shard-smoke:
	$(GO) build -o bin/dronet-serve ./cmd/dronet-serve
	$(GO) build -o bin/dronet-proxy ./cmd/dronet-proxy
	$(GO) run ./examples/serveclient -sharded -server bin/dronet-serve \
	    -proxy bin/dronet-proxy -size 96

## stream-smoke: boot the real dronet-serve binary and walk the WebSocket
## session lifecycle end to end — hello, in-order results with per-session
## tracker state, the max-sessions 503 + Retry-After, in-band bad-frame
## errors, idle eviction (bye "idle") and the SIGTERM drain (bye "drain");
## the -sharded leg then puts two real shards behind a real dronet-proxy
## and asserts camera-affine placement plus the failover resume: draining
## the owner shard mid-session must yield a resumed:true marker on the
## survivor and a fresh tracker (examples/streamclient is the driver)
stream-smoke:
	$(GO) build -o bin/dronet-serve ./cmd/dronet-serve
	$(GO) build -o bin/dronet-proxy ./cmd/dronet-proxy
	$(GO) run ./examples/streamclient -server bin/dronet-serve
	$(GO) run ./examples/streamclient -sharded -server bin/dronet-serve \
	    -proxy bin/dronet-proxy

## stream-soak: the long-running streaming churn test (nightly CI): 16
## session clients over a 12-session budget cycling normal/idle-out/
## abrupt-disconnect/graceful modes under the race detector, asserting the
## session gauge returns to zero and no goroutines leak. SOAK tunes the
## duration (TestStreamSoak skips entirely when DRONET_SOAK is unset).
SOAK ?= 30s
stream-soak:
	DRONET_SOAK=$(SOAK) $(GO) test -race -run TestStreamSoak -v ./internal/serve/

## chaos: the fault-injection resilience suite under the race detector —
## breaker unit lifecycle, chaos against a faulted shard (breaker opens,
## half-open probe recovers it), retry-budget exhaustion, end-to-end
## deadline propagation, the deadline storm that must never reach a kernel
## (pinned by the batch-histogram accounting identity), expired-on-arrival
## 504s, brownout degrade/recover, and goroutine hygiene after Close on
## both the server and the proxy
chaos:
	$(GO) test -race -run 'TestBreaker|TestChaos|TestProxyDeadline|TestDeadline|TestExpired|TestBrownout|GoroutineHygiene' \
	    ./internal/serve/ ./internal/cluster/

## fuzz: short bounded fuzz pass over the detect, kernel, quantization and
## spec-grammar invariants (FuzzGemmPackedVsNaive cross-checks the packed
## cache-blocked GEMM against the naive loops across EVERY registered
## microkernel family — avx2/sse2/portable: exact for int8, <=1e-4 relative
## for fp32; FuzzConvLoweringVsIm2col holds the implicit-im2col conv
## lowering to Im2col + packed GEMM bit for bit, also across every family;
## the leading dispatch-info run logs which families this box
## detected so fuzz logs are attributable; FuzzParseModelSpecs holds -models
## parsing to a no-panic + parse/format/parse fixed-point contract). FUZZTIME
## tunes the per-target budget (CI's parallel fuzz job uses 15s).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run TestKernelDispatchInfo -v ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzIoU -fuzztime $(FUZZTIME) ./internal/detect
	$(GO) test -run '^$$' -fuzz FuzzNMS -fuzztime $(FUZZTIME) ./internal/detect
	$(GO) test -run '^$$' -fuzz FuzzGemmPackedVsNaive -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzIm2colInt8 -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzConvLoweringVsIm2col -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzQuantDequant -fuzztime $(FUZZTIME) ./internal/quant
	$(GO) test -run '^$$' -fuzz FuzzParseModelSpecs -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzRingOwnership -fuzztime $(FUZZTIME) ./internal/cluster

## profile: run the serving selfbench with CPU + heap pprof capture; inspect
## with `go tool pprof bin/pprof/cpu.pprof` (see README "Profiling")
profile:
	mkdir -p bin/pprof
	$(GO) run ./cmd/dronet-serve -selfbench -size 96 -scale 0.25 -workers 2 \
	    -bench-clients 8 -bench-requests 25 -bench-out bin/pprof/BENCH_serve.json \
	    -cpuprofile bin/pprof/cpu.pprof -memprofile bin/pprof/heap.pprof

## fleet: demo the multi-stream engine with a serial-vs-parallel comparison
fleet:
	$(GO) run ./cmd/dronet-fleet -streams 4 -workers 4 -frames 50 -compare

## serve: run the detection service locally with the default knobs
serve:
	$(GO) run ./cmd/dronet-serve -addr :8080 -size 128 -scale 0.5
