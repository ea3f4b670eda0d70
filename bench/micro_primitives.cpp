// Micro-benchmarks of the primitives on KDD's hot paths: the LZ codec,
// delta generation/application, GF(256) parity arithmetic, the device page
// tag, RAID-5 RMW, the cache index and the samplers.
#include <benchmark/benchmark.h>

#include "cache/sets.hpp"
#include "common/hash.hpp"
#include "common/kernels.hpp"
#include "common/page_arena.hpp"
#include "common/rng.hpp"
#include "compress/content.hpp"
#include "compress/delta.hpp"
#include "compress/lz.hpp"
#include "raid/gf256.hpp"
#include "raid/raid_array.hpp"

namespace kdd {
namespace {

Page random_page(std::uint64_t seed) {
  Rng rng(seed);
  Page p(kPageSize);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_u64());
  return p;
}

void BM_LzCompressSparseDelta(benchmark::State& state) {
  const ContentGenerator gen(1);
  Rng rng(2);
  const Page base = gen.base_page(0);
  const Page mutated = gen.mutate(base, static_cast<double>(state.range(0)) / 100.0, rng);
  const Page diff = xor_pages(base, mutated);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lz_compress(diff));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_LzCompressSparseDelta)->Arg(12)->Arg(25)->Arg(50);

void BM_LzDecompress(benchmark::State& state) {
  const ContentGenerator gen(1);
  Rng rng(3);
  const Page base = gen.base_page(0);
  const Page diff = xor_pages(base, gen.mutate(base, 0.25, rng));
  const auto compressed = lz_compress(diff);
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lz_decompress(compressed, kPageSize, out));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_LzDecompress);

void BM_MakeDelta(benchmark::State& state) {
  const ContentGenerator gen(1);
  Rng rng(4);
  const Page base = gen.base_page(0);
  const Page mutated = gen.mutate(base, 0.25, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_delta(base, mutated));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_MakeDelta);

void BM_ApplyDelta(benchmark::State& state) {
  const ContentGenerator gen(1);
  Rng rng(5);
  const Page base = gen.base_page(0);
  const Delta d = make_delta(base, gen.mutate(base, 0.25, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(apply_delta(base, d));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_ApplyDelta);

void BM_XorPage(benchmark::State& state) {
  Page a = random_page(6);
  const Page b = random_page(7);
  for (auto _ : state) {
    xor_into(a, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_XorPage);

void BM_Gf256MulAcc(benchmark::State& state) {
  Page a = random_page(8);
  const Page b = random_page(9);
  for (auto _ : state) {
    gf256::mul_acc(a, 0x37, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_Gf256MulAcc);

void BM_XorPages3(benchmark::State& state) {
  const Page a = random_page(20);
  const Page b = random_page(21);
  Page dst(kPageSize);
  for (auto _ : state) {
    xor_pages3(dst, a, b);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_XorPages3);

void BM_AllZero(benchmark::State& state) {
  const Page z(kPageSize, 0);  // worst case: scans the whole page
  for (auto _ : state) {
    benchmark::DoNotOptimize(all_zero(z));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_AllZero);

// The device integrity tag every simulated read and write computes, and the
// byte-wise FNV-1a it replaced there (perf_gate gates the ratio).
void BM_PageTag(benchmark::State& state) {
  const Page p = random_page(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(page_tag(p));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_PageTag);

void BM_Fnv1a(benchmark::State& state) {
  const Page p = random_page(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fnv1a(kFnvOffset, p));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_Fnv1a);

void BM_Gf256MulAccScalarRef(benchmark::State& state) {
  // The pre-dispatch log/exp loop, kept as the comparison baseline.
  Page a = random_page(8);
  const Page b = random_page(9);
  for (auto _ : state) {
    gf256::mul_acc_ref(a, 0x37, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_Gf256MulAccScalarRef);

void BM_MakeDeltaInto(benchmark::State& state) {
  // The allocation-free variant the write path actually uses.
  const ContentGenerator gen(1);
  Rng rng(4);
  const Page base = gen.base_page(0);
  const Page mutated = gen.mutate(base, 0.25, rng);
  Delta d;
  for (auto _ : state) {
    make_delta_into(base, mutated, d);
    benchmark::DoNotOptimize(d.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_MakeDeltaInto);

void BM_ApplyDeltaInto(benchmark::State& state) {
  const ContentGenerator gen(1);
  Rng rng(5);
  const Page base = gen.base_page(0);
  const Delta d = make_delta(base, gen.mutate(base, 0.25, rng));
  Page out(kPageSize);
  for (auto _ : state) {
    apply_delta_into(base, d, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_ApplyDeltaInto);

void BM_Raid5SmallWrite(benchmark::State& state) {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 16;
  geo.disk_pages = 4096;
  RaidArray array(geo);
  const Page data = random_page(10);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        array.write_page(rng.next_below(array.data_pages()), data));
  }
}
BENCHMARK(BM_Raid5SmallWrite);

void BM_Raid6SmallWrite(benchmark::State& state) {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid6;
  geo.num_disks = 6;
  geo.chunk_pages = 16;
  geo.disk_pages = 4096;
  RaidArray array(geo);
  const Page data = random_page(12);
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        array.write_page(rng.next_below(array.data_pages()), data));
  }
}
BENCHMARK(BM_Raid6SmallWrite);

void BM_CacheSetLookup(benchmark::State& state) {
  CacheSets sets(65536, 16);
  Rng rng(14);
  // Populate half the slots.
  for (std::uint32_t i = 0; i < 32768; ++i) {
    sets.slot(i * 2).lba = i * 2;
    sets.set_state(i * 2, PageState::kClean);
  }
  for (auto _ : state) {
    const auto set = static_cast<std::uint32_t>(rng.next_below(sets.num_sets()));
    benchmark::DoNotOptimize(sets.find_data(set, rng.next_below(65536)));
  }
}
BENCHMARK(BM_CacheSetLookup);

void BM_ZipfSample(benchmark::State& state) {
  const ZipfSampler zipf(409600, 1.0001);
  Rng rng(15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_GaussianRatioSample(benchmark::State& state) {
  const auto sampler = GaussianRatioSampler::for_mean(0.25);
  Rng rng(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_GaussianRatioSample);

}  // namespace
}  // namespace kdd

BENCHMARK_MAIN();
