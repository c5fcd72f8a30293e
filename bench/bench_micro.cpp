// Microbenchmarks (google-benchmark): throughput of the substrates the
// evaluation rests on -- ECC codecs, the reliability math, the cache
// simulator, and trace generation.
#include <benchmark/benchmark.h>

#include "reap/common/rng.hpp"
#include "reap/core/experiment.hpp"
#include "reap/core/policy_impl.hpp"
#include "reap/ecc/bch.hpp"
#include "reap/ecc/hamming.hpp"
#include "reap/ecc/secded.hpp"
#include "reap/reliability/binomial.hpp"
#include "reap/sim/cpu.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/spec2006.hpp"

using namespace reap;

namespace {

common::BitVec random_data(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  common::BitVec v(n);
  for (std::size_t i = 0; i < n; ++i)
    if (rng.chance(0.5)) v.set(i);
  return v;
}

void BM_SecDedEncode512(benchmark::State& state) {
  ecc::SecDedCode code(512);
  const auto data = random_data(512, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(data));
  }
}
BENCHMARK(BM_SecDedEncode512);

void BM_SecDedDecodeClean512(benchmark::State& state) {
  ecc::SecDedCode code(512);
  const auto cw = code.encode(random_data(512, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(cw));
  }
}
BENCHMARK(BM_SecDedDecodeClean512);

void BM_SecDedDecodeCorrect512(benchmark::State& state) {
  ecc::SecDedCode code(512);
  auto cw = code.encode(random_data(512, 3));
  cw.flip(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(cw));
  }
}
BENCHMARK(BM_SecDedDecodeCorrect512);

void BM_BchDecodeDouble512(benchmark::State& state) {
  ecc::BchCode code(512, 2);
  auto cw = code.encode(random_data(512, 4));
  cw.flip(5);
  cw.flip(300);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(cw));
  }
}
BENCHMARK(BM_BchDecodeDouble512);

void BM_BinomialTailEq3(benchmark::State& state) {
  std::uint64_t n = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reliability::p_uncorrectable_block_acc(512, n, 1e-8));
    n = n == 100 ? 5000 : 100;
  }
}
BENCHMARK(BM_BinomialTailEq3);

void BM_UncorrectableModelCachedSingle(benchmark::State& state) {
  reliability::UncorrectableModel model(1e-8, 1, 512);
  std::uint64_t ones = 17;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.single(ones));
    ones = (ones * 31 + 7) % 512;
  }
}
BENCHMARK(BM_UncorrectableModelCachedSingle);

void BM_TraceGeneration(benchmark::State& state) {
  auto profile = *trace::spec2006_profile("perlbench");
  trace::WorkloadTraceSource src(profile);
  trace::MemOp op;
  for (auto _ : state) {
    src.next(op);
    benchmark::DoNotOptimize(op);
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_TraceBatchGeneration(benchmark::State& state) {
  // The batched pull the simulator's static path uses: one virtual call
  // per kBatchOps operations. items = ops, for comparison against the
  // per-op BM_TraceGeneration.
  auto profile = *trace::spec2006_profile("perlbench");
  trace::WorkloadTraceSource src(profile);
  std::vector<trace::MemOp> buf(sim::TraceCpu::kBatchOps);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    ops += src.next_batch({buf.data(), buf.size()});
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_TraceBatchGeneration);

void BM_TraceReplayBatch(benchmark::State& state) {
  // ReplayTraceSource::next_batch: the bounds-checked unpack of a
  // materialized arena — the stream cost of every trace-cache hit.
  // Compare against BM_TraceBatchGeneration for the per-op RNG work a
  // replayed grid point skips.
  auto profile = *trace::spec2006_profile("perlbench");
  trace::WorkloadTraceSource gen(profile);
  const auto trace = trace::MaterializedTrace::materialize(gen, 100'000);
  trace::ReplayTraceSource src(trace);
  std::vector<trace::MemOp> buf(sim::TraceCpu::kBatchOps);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    std::size_t n = src.next_batch({buf.data(), buf.size()});
    if (n == 0) {
      src.reset();
      n = src.next_batch({buf.data(), buf.size()});
    }
    ops += n;
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_TraceReplayBatch);

void BM_CacheLookupHit(benchmark::State& state) {
  // SoA tag-column scan: L1-shaped cache, all reads hit, no hooks.
  sim::SetAssocCache cache(
      {.name = "L1", .capacity_bytes = 32 * 1024, .ways = 4,
       .block_bytes = 64});
  sim::NullHooks hooks;
  for (std::uint64_t a = 0; a < 32 * 1024; a += 64) cache.fill(a, false, hooks);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.read(addr, hooks));
    addr = (addr + 8 * 73) & (32 * 1024 - 1);  // walk the sets
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheLookupMissAndFill(benchmark::State& state) {
  // Thrash a small cache: every read misses and the block is refilled
  // (tag scan + victim scan + fill bookkeeping).
  sim::SetAssocCache cache(
      {.name = "L1", .capacity_bytes = 4 * 1024, .ways = 4,
       .block_bytes = 64});
  sim::NullHooks hooks;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    if (!cache.read(addr, hooks)) cache.fill(addr, false, hooks);
    addr += 4 * 1024;  // same set, always a new tag
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheLookupMissAndFill);

void BM_CacheFindWay(benchmark::State& state) {
  // The set-scan kernel in isolation, scalar reference vs the build's
  // find_way (vector when REAP_SIMD is on), across way counts. Columns
  // are padded/aligned exactly as SetAssocCache lays them out; half the
  // lookups hit, half miss, planted across all ways.
  const bool vector = state.range(0) != 0;
  const std::size_t ways = static_cast<std::size_t>(state.range(1));
  const std::size_t kSets = 512;
  const std::size_t stride = sim::simd::padded_ways(ways);
  sim::simd::AlignedVec<std::uint64_t> tags(kSets * stride);
  common::Rng rng(7);
  std::vector<std::uint64_t> keys(kSets);
  for (std::size_t s = 0; s < kSets; ++s) {
    for (std::size_t w = 0; w < ways; ++w)
      tags[s * stride + w] = ((s * ways + w + 1) << 1) | 1;
    // Even sets: probe a resident tag (hit); odd sets: an absent one.
    const std::size_t w = rng.next() % ways;
    keys[s] = (s % 2 == 0) ? tags[s * stride + w]
                           : ((std::uint64_t{kSets * 16 + s} << 1) | 1);
  }
  std::size_t s = 0;
  for (auto _ : state) {
    const std::uint64_t* col = tags.data() + s * stride;
    benchmark::DoNotOptimize(
        vector ? sim::simd::find_way(col, ways, keys[s])
               : sim::simd::find_way_scalar(col, ways, keys[s]));
    s = (s + 1) & (kSets - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(vector ? (sim::simd::kEnabled ? "vector" : "scalar-build")
                        : "scalar");
}
BENCHMARK(BM_CacheFindWay)
    ->ArgsProduct({{0, 1}, {2, 4, 8, 16}})
    ->ArgNames({"simd", "ways"});

void BM_BatchAddrDecode(benchmark::State& state) {
  // The batch pre-pass run_vectorized adds: kBatchOps addresses ->
  // (set, tagv) against the Table I L2 geometry. items = ops, so
  // items_per_second shows the per-op cost the pre-decode amortizes.
  auto profile = *trace::spec2006_profile("perlbench");
  trace::WorkloadTraceSource src(profile);
  std::vector<trace::MemOp> buf(sim::TraceCpu::kBatchOps);
  const std::size_t n = src.next_batch({buf.data(), buf.size()});
  std::vector<std::uint32_t> set(n);
  std::vector<std::uint64_t> tagv(n);
  sim::SetAssocCache l2(
      {.name = "L2", .capacity_bytes = 1024 * 1024, .ways = 8,
       .block_bytes = 64});
  std::uint64_t ops = 0;
  for (auto _ : state) {
    sim::simd::predecode(buf.data(), n, l2.offset_bits(), l2.index_bits(),
                         set.data(), tagv.data());
    benchmark::DoNotOptimize(set.data());
    benchmark::DoNotOptimize(tagv.data());
    ops += n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_BatchAddrDecode);

void BM_HierarchySimulation(benchmark::State& state) {
  // Steady-state instructions/second through the full hierarchy with the
  // REAP policy attached (the heaviest hook).
  auto profile = *trace::spec2006_profile("perlbench");
  trace::WorkloadTraceSource src(profile);
  sim::HierarchyConfig hcfg;
  sim::MemoryHierarchy hier(hcfg, 1);
  reliability::UncorrectableModel model(1e-8, 1, 512);
  reliability::FailureLedger ledger;
  core::PolicyContext ctx;
  ctx.model = &model;
  ctx.ledger = &ledger;
  ctx.ways = 8;
  ctx.lines = hier.l2().lines();
  sim::TraceCpu cpu(src, hier);
  core::with_policy_impl(core::PolicyKind::reap, ctx, [&](auto& policy) {
    cpu.run_vectorized(100'000, policy);  // warm
    for (auto _ : state) {
      cpu.run_vectorized(1'000, policy);
    }
  });
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_HierarchySimulation);

void BM_FullExperimentSmall(benchmark::State& state) {
  auto profile = *trace::spec2006_profile("gcc");
  for (auto _ : state) {
    core::ExperimentConfig cfg;
    cfg.workload = profile;
    cfg.instructions = 50'000;
    cfg.warmup_instructions = 10'000;
    benchmark::DoNotOptimize(core::run_experiment(cfg));
  }
}
BENCHMARK(BM_FullExperimentSmall)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
