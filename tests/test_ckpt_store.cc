/** @file Checkpoint-store tests: the RLE codec, content-hash dedup and
 *  its refcounted live accounting, byte-budget recycling, the
 *  RSAFE_NO_CKPT_COMPRESS A/B determinism gate, and the shippable-
 *  checkpoint path (ArStage booting from a deserialized
 *  kCheckpointImage with bit-identical verdicts, in the fleet too). */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/log.h"
#include "core/ar_stage.h"
#include "core/framework.h"
#include "fleet/fleet.h"
#include "replay/checkpoint.h"
#include "replay/checkpoint_replayer.h"
#include "replay/ckpt_store/ckpt_image.h"
#include "replay/ckpt_store/compress.h"
#include "replay/ckpt_store/page_pool.h"
#include "rnr/recorder.h"
#include "test_util.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

using replay::ckpt::rle_compress;
using replay::ckpt::rle_decompress;

workloads::WorkloadProfile
small_profile(const std::string& name = "fileio", std::uint64_t iters = 150)
{
    auto profile = workloads::benchmark_profile(name);
    profile.iterations_per_task = iters;
    return profile;
}

struct Recorded {
    std::unique_ptr<hv::Vm> vm;
    std::unique_ptr<rnr::Recorder> recorder;
};

Recorded
record(const workloads::WorkloadProfile& profile)
{
    Recorded out;
    out.vm = workloads::make_vm(profile);
    out.recorder =
        std::make_unique<rnr::Recorder>(out.vm.get(), rnr::RecorderOptions{});
    EXPECT_EQ(out.recorder->run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);
    return out;
}

std::vector<std::uint8_t>
round_trip(const std::vector<std::uint8_t>& raw)
{
    const auto encoded = rle_compress(raw.data(), raw.size());
    std::vector<std::uint8_t> decoded(raw.size());
    const Status status = rle_decompress(encoded.data(), encoded.size(),
                                         decoded.data(), decoded.size());
    EXPECT_TRUE(status.ok()) << status.to_string();
    return decoded;
}

std::size_t
pristine_pages(const hv::Vm& vm)
{
    std::size_t n = 0;
    for (Addr page = 0; page < vm.mem().num_pages(); ++page)
        n += vm.mem().pages().pristine(page) ? 1 : 0;
    return n;
}

void
expect_same_pool_stats(const replay::ckpt::PagePoolStats& a,
                       const replay::ckpt::PagePoolStats& b)
{
    EXPECT_EQ(a.pages_interned, b.pages_interned);
    EXPECT_EQ(a.dedup_hits, b.dedup_hits);
    EXPECT_EQ(a.bytes_raw, b.bytes_raw);
    EXPECT_EQ(a.bytes_stored, b.bytes_stored);
    EXPECT_EQ(a.compressed_pages, b.compressed_pages);
    EXPECT_EQ(a.live_bytes, b.live_bytes);
    EXPECT_EQ(a.live_pages, b.live_pages);
}

// ---------------------------------------------------------------------
// The RLE codec.

TEST(Rle, RoundTripsRepresentativePages)
{
    // The zero page — the dominant content in a full checkpoint.
    std::vector<std::uint8_t> zero(kPageSize, 0);
    const auto zero_encoded = rle_compress(zero.data(), zero.size());
    EXPECT_LE(zero_encoded.size(), kPageSize / 64);
    EXPECT_EQ(round_trip(zero), zero);

    // A constant non-zero page.
    std::vector<std::uint8_t> constant(kPageSize, 0xa5);
    EXPECT_EQ(round_trip(constant), constant);

    // A runless page: compression cannot win, but must stay correct.
    std::vector<std::uint8_t> runless(kPageSize);
    for (std::size_t i = 0; i < runless.size(); ++i)
        runless[i] = static_cast<std::uint8_t>(7 * i + 13);
    EXPECT_EQ(round_trip(runless), runless);

    // Mixed content from a deterministic LCG, with runs spliced in.
    std::vector<std::uint8_t> mixed(kPageSize);
    std::uint64_t state = 0x5EED;
    for (auto& byte : mixed) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        byte = static_cast<std::uint8_t>(state >> 56);
    }
    std::memset(mixed.data() + 100, 0x11, 200);
    std::memset(mixed.data() + 2000, 0x22, 5);
    EXPECT_EQ(round_trip(mixed), mixed);
}

TEST(Rle, BoundaryRunLengths)
{
    // Runs of length kMinRun-1 (literal), kMinRun (shortest repeat
    // token), kMaxRun (longest), and kMaxRun+1 (split) all round-trip.
    for (const std::size_t run : {replay::ckpt::kMinRun - 1,
                                  replay::ckpt::kMinRun,
                                  replay::ckpt::kMaxRun,
                                  replay::ckpt::kMaxRun + 1}) {
        std::vector<std::uint8_t> buf;
        buf.push_back(0x01);
        buf.insert(buf.end(), run, 0x42);
        buf.push_back(0x02);
        EXPECT_EQ(round_trip(buf), buf) << "run length " << run;
    }
    // Literal stretches around the 128-byte token limit.
    for (const std::size_t len : {std::size_t{127}, std::size_t{128},
                                  std::size_t{129}}) {
        std::vector<std::uint8_t> buf(len);
        for (std::size_t i = 0; i < len; ++i)
            buf[i] = static_cast<std::uint8_t>(3 * i + 1);
        EXPECT_EQ(round_trip(buf), buf) << "literal length " << len;
    }
}

TEST(Rle, StrictDecodeRejectsDefects)
{
    std::uint8_t out[16];

    // Literal token promising more bytes than the stream holds.
    const std::uint8_t truncated_literal[] = {0x07, 0xaa};
    EXPECT_EQ(rle_decompress(truncated_literal, sizeof(truncated_literal),
                             out, sizeof(out))
                  .code(),
              StatusCode::kMalformedRecord);

    // Repeat token with its value byte cut off.
    const std::uint8_t headless_repeat[] = {0x80};
    EXPECT_EQ(rle_decompress(headless_repeat, sizeof(headless_repeat), out,
                             sizeof(out))
                  .code(),
              StatusCode::kMalformedRecord);

    // Stream decoding past the output size.
    const std::uint8_t overflow[] = {0xff, 0x55};  // 131-byte run
    EXPECT_EQ(rle_decompress(overflow, sizeof(overflow), out, sizeof(out))
                  .code(),
              StatusCode::kMalformedRecord);

    // Stream producing fewer bytes than required.
    const std::uint8_t short_stream[] = {0x01, 0x10, 0x20};
    EXPECT_EQ(rle_decompress(short_stream, sizeof(short_stream), out,
                             sizeof(out))
                  .code(),
              StatusCode::kMalformedRecord);

    // The empty stream is only valid for an empty output.
    EXPECT_TRUE(rle_decompress(nullptr, 0, out, 0).ok());
    EXPECT_EQ(rle_decompress(nullptr, 0, out, sizeof(out)).code(),
              StatusCode::kMalformedRecord);
}

// ---------------------------------------------------------------------
// The dedup pool.

TEST(PagePool, DedupSharesEqualContentAndTracksLiveBytes)
{
    replay::ckpt::PagePool pool;
    std::vector<std::uint8_t> zero(kPageSize, 0);
    std::vector<std::uint8_t> other(kPageSize, 0);
    other[17] = 0x99;

    auto a = pool.intern(zero.data());
    auto b = pool.intern(zero.data());
    auto c = pool.intern(other.data());
    EXPECT_EQ(a.get(), b.get()) << "equal content must share one page";
    EXPECT_NE(a.get(), c.get());

    auto stats = pool.stats();
    EXPECT_EQ(stats.pages_interned, 3u);
    EXPECT_EQ(stats.dedup_hits, 1u);
    EXPECT_EQ(stats.bytes_raw, 3u * kPageSize);
    EXPECT_EQ(stats.live_pages, 2u);
    EXPECT_GT(stats.live_bytes, 0u);
    EXPECT_LT(stats.live_bytes, 2u * kPageSize) << "zero-ish pages RLE";

    // Decoded content is intact.
    std::vector<std::uint8_t> decoded(kPageSize);
    c->copy_to(decoded.data());
    EXPECT_EQ(decoded, other);

    // Dropping every reference returns the bytes (deleter accounting).
    a.reset();
    b.reset();
    c.reset();
    stats = pool.stats();
    EXPECT_EQ(stats.live_pages, 0u);
    EXPECT_EQ(stats.live_bytes, 0u);
}

TEST(PagePool, InternedPagesAreImmutableSnapshots)
{
    replay::ckpt::PagePool pool;
    std::vector<std::uint8_t> page(kPageSize, 1);
    auto ref = pool.intern(page.data());
    page[0] = 2;  // mutating the source must not affect the stored page
    std::vector<std::uint8_t> decoded(kPageSize);
    ref->copy_to(decoded.data());
    EXPECT_EQ(decoded[0], 1);
    EXPECT_TRUE(ref->content_equals(std::vector<std::uint8_t>(kPageSize, 1)
                                        .data()));
    EXPECT_EQ(pool.stats().pages_interned, 1u);
    EXPECT_EQ(pool.stats().bytes_raw, kPageSize);
}

TEST(PagePool, SharedOwnershipKeepsPagesAlive)
{
    replay::ckpt::PagePool pool;
    std::vector<std::uint8_t> page(kPageSize, 7);
    auto a = pool.intern(page.data());
    auto b = a;  // a later checkpoint sharing the page
    a.reset();   // recycling the older checkpoint
    ASSERT_TRUE(b != nullptr);
    std::vector<std::uint8_t> decoded(kPageSize);
    b->copy_to(decoded.data());
    EXPECT_EQ(decoded[100], 7);
    EXPECT_EQ(pool.stats().live_pages, 1u);
}

TEST(PagePool, CompressionIsOptionalAndLossless)
{
    replay::ckpt::PagePoolOptions raw_options;
    raw_options.compress = false;
    replay::ckpt::PagePool raw_pool(raw_options);
    replay::ckpt::PagePool rle_pool;

    std::vector<std::uint8_t> zero(kPageSize, 0);
    auto raw_page = raw_pool.intern(zero.data());
    auto rle_page = rle_pool.intern(zero.data());
    EXPECT_EQ(raw_page->encoding(), replay::ckpt::PageEncoding::kRaw);
    EXPECT_EQ(raw_page->stored_bytes(), kPageSize);
    EXPECT_EQ(rle_page->encoding(), replay::ckpt::PageEncoding::kRle);
    EXPECT_LE(rle_page->stored_bytes(), kPageSize / 64);

    std::vector<std::uint8_t> a(kPageSize), b(kPageSize);
    raw_page->copy_to(a.data());
    rle_page->copy_to(b.data());
    EXPECT_EQ(a, zero);
    EXPECT_EQ(b, zero);
    EXPECT_EQ(rle_pool.stats().compressed_pages, 1u);
    EXPECT_EQ(raw_pool.stats().compressed_pages, 0u);
}

TEST(PagePool, InternZeroIsInternOfAZeroPage)
{
    const std::vector<std::uint8_t> zero(kPageSize, 0);
    std::vector<std::uint8_t> other(kPageSize, 0);
    other[4000] = 1;

    replay::ckpt::PagePool via_zero, via_bytes;
    auto a = via_zero.intern_zero();
    auto b = via_zero.intern(zero.data());
    auto c = via_zero.intern_zero();
    auto d = via_zero.intern(other.data());
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a.get(), c.get());
    EXPECT_TRUE(a->is_zero());
    EXPECT_FALSE(d->is_zero());
    const auto a2 = via_bytes.intern(zero.data());
    const auto b2 = via_bytes.intern(zero.data());
    const auto c2 = via_bytes.intern(zero.data());
    const auto d2 = via_bytes.intern(other.data());
    EXPECT_TRUE(a2->is_zero());
    EXPECT_FALSE(d2->is_zero());
    expect_same_pool_stats(via_zero.stats(), via_bytes.stats());

    // Once every reference is gone, the next zero intern stores anew.
    a.reset();
    b.reset();
    c.reset();
    const auto again = via_zero.intern_zero();
    EXPECT_TRUE(again->is_zero());
    EXPECT_EQ(via_zero.stats().live_pages, 2u);
    EXPECT_EQ(via_zero.stats().dedup_hits, 2u);
}

/**
 * The initial checkpoint of a fresh VM, which sends pristine pages to
 * intern_zero(), must equal interning every page's bytes: same digest,
 * same pool accounting.
 */
void
expect_initial_take_matches_interning_every_page(bool dedup, bool compress)
{
    SCOPED_TRACE(strcat_args("dedup=", dedup, " compress=", compress));
    auto vm = workloads::make_vm(small_profile());
    auto& mem = vm->mem();
    auto& disk = vm->hub().disk();
    // Besides the loaded images: a written block, and a page written
    // back to zero (non-pristine, yet zero).
    const std::vector<std::uint8_t> block(kDiskBlockSize, 0x5a);
    disk.write(3, block.data());
    mem.write_raw(mem.size() - 8, 8, 0);
    const std::size_t pristine = pristine_pages(*vm);
    ASSERT_GT(pristine, 0u);
    ASSERT_LT(pristine, mem.num_pages()) << "the images were loaded";

    replay::ckpt::PagePoolOptions pool_options;
    pool_options.dedup = dedup;
    pool_options.compress = compress;
    replay::ckpt::PagePool pool(pool_options);
    replay::ckpt::StoredPageTable pages(mem.num_pages());
    replay::ckpt::StoredPageTable blocks(disk.num_pages());
    for (Addr page = 0; page < mem.num_pages(); ++page)
        pages.set(page, pool.intern(mem.page_data(page)));
    for (BlockNum block = 0; block < disk.num_pages(); ++block)
        blocks.set(block, pool.intern(disk.data(block)));

    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});
    replay::CheckpointStoreOptions options;
    options.dedup = dedup;
    options.compress = compress;
    replay::CheckpointStore store(options);
    const auto ck = store.take(*vm, env, 0);
    EXPECT_EQ(ck->copies, mem.num_pages() + disk.num_pages());

    replay::Checkpoint reference = *ck;
    reference.pages = pages;
    reference.blocks = blocks;
    EXPECT_EQ(replay::digest_of(*ck), replay::digest_of(reference));

    const auto taken = store.stats();
    const auto interned = pool.stats();
    EXPECT_EQ(store.total_copies(), interned.pages_interned);
    EXPECT_EQ(taken.bytes_raw, interned.bytes_raw);
    EXPECT_EQ(taken.bytes_stored, interned.bytes_stored);
    EXPECT_EQ(taken.dedup_hits, interned.dedup_hits);
    EXPECT_EQ(taken.compressed_pages, interned.compressed_pages);
    EXPECT_EQ(taken.live_bytes, interned.live_bytes);
    EXPECT_EQ(taken.live_pages, interned.live_pages);
}

TEST(CheckpointStore, InitialTakeEqualsInterningEveryPage)
{
    expect_initial_take_matches_interning_every_page(true, true);
    expect_initial_take_matches_interning_every_page(false, true);
    expect_initial_take_matches_interning_every_page(true, false);
}

// ---------------------------------------------------------------------
// Byte-budget recycling.

TEST(CheckpointStore, ByteBudgetRecyclesOldestFirstAndKeepsNewest)
{
    auto profile = small_profile("radiosity");
    profile.rdtsc_prob = 0.0;
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});

    // Budget sized from the initial full checkpoint, with headroom for
    // roughly two deltas — later takes must push the oldest ones out.
    replay::CheckpointStore probe(
        replay::CheckpointStoreOptions{/*max_keep=*/0, /*byte_budget=*/0});
    probe.take(*vm, env, 0);
    const std::uint64_t base_bytes = probe.stats().live_bytes;

    replay::CheckpointStoreOptions options;
    options.byte_budget = base_bytes + 128;
    replay::CheckpointStore store(options);

    const std::size_t takes = 8;
    for (std::size_t i = 0; i < takes; ++i) {
        vm->cpu().run(~static_cast<Cycles>(0), vm->cpu().icount() + 500);
        // Fresh incompressible content each round: the budget must fill.
        for (int j = 0; j < 4; ++j)
            vm->mem().write_raw(0x100000 + j * kPageSize, 8,
                                0xdead0000 + i * 16 + j);
        store.take(*vm, env, i);
    }

    const auto stats = store.stats();
    EXPECT_GT(stats.budget_evictions, 0u);
    EXPECT_LT(store.size(), takes);
    // The newest checkpoint always survives...
    ASSERT_NE(store.latest(), nullptr);
    EXPECT_EQ(store.latest()->log_pos, takes - 1);
    // ...and an alarm older than the oldest survivor gets a clean null,
    // never a stale or out-of-range checkpoint.
    const auto oldest = store.at(0);
    EXPECT_EQ(store.latest_at_or_before(oldest->icount - 1), nullptr);
    EXPECT_EQ(store.latest_at_or_before(oldest->icount), oldest);
}

TEST(CheckpointStore, ImpossibleBudgetStillKeepsTheNewestCheckpoint)
{
    auto profile = small_profile();
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});

    replay::CheckpointStoreOptions options;
    options.byte_budget = 1;  // nothing fits: budget bounds depth, not
                              // correctness
    replay::CheckpointStore store(options);
    for (int i = 0; i < 4; ++i) {
        vm->mem().write_raw(0x100000, 8, 100 + i);
        store.take(*vm, env, i);
        ASSERT_EQ(store.size(), 1u);
        EXPECT_EQ(store.latest()->log_pos, static_cast<std::size_t>(i));
    }
    EXPECT_EQ(store.stats().budget_evictions, 3u);
}

TEST(CheckpointStore, CountRecyclingGetsByteAccounting)
{
    auto profile = small_profile();
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});

    replay::CheckpointStore store(2);
    std::uint64_t live_at_three = 0;
    for (int i = 0; i < 6; ++i) {
        // Two fresh pages per take, each unique content.
        vm->mem().write_raw(0x100000, 8, 0x1111000 + i);
        vm->mem().write_raw(0x100000 + kPageSize, 8, 0x2222000 + i);
        store.take(*vm, env, i);
        if (i == 2)
            live_at_three = store.stats().live_bytes;
    }
    const auto stats = store.stats();
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(stats.count_evictions, 4u);
    EXPECT_EQ(stats.budget_evictions, 0u);
    // Recycled checkpoints actually freed their unshared pages: live
    // bytes stay bounded instead of accumulating per take.
    EXPECT_LE(store.stats().live_bytes, live_at_three);
    // Cumulative stored bytes keep the full history (they are a
    // traffic counter, not a live gauge).
    EXPECT_GT(stats.bytes_stored, 0u);
    EXPECT_GT(stats.bytes_raw, stats.bytes_stored);
}

// ---------------------------------------------------------------------
// The RSAFE_NO_CKPT_COMPRESS determinism gate.

TEST(CheckpointStore, CompressKillSwitchIsBitIdenticalAndBiggerOnDisk)
{
    const auto profile = small_profile("fileio", 200);
    auto factory = workloads::vm_factory(profile);
    auto recorded = record(profile);
    const auto& log = recorded.recorder->log();

    replay::CrOptions options;
    options.checkpoint_interval = 1'500'000;
    options.max_checkpoints = 0;

    auto compressed_vm = factory();
    replay::CheckpointReplayer compressed(compressed_vm.get(), &log,
                                          options);
    ASSERT_EQ(compressed.run(), rnr::ReplayOutcome::kFinished);

    ::setenv("RSAFE_NO_CKPT_COMPRESS", "1", 1);
    auto raw_vm = factory();
    replay::CheckpointReplayer raw(raw_vm.get(), &log, options);
    ::unsetenv("RSAFE_NO_CKPT_COMPRESS");
    ASSERT_EQ(raw.run(), rnr::ReplayOutcome::kFinished);

    // The kill switch took effect and costs bytes...
    EXPECT_FALSE(raw.checkpoints().options().compress);
    EXPECT_TRUE(compressed.checkpoints().options().compress);
    EXPECT_GT(raw.checkpoints().stats().bytes_stored,
              compressed.checkpoints().stats().bytes_stored);
    EXPECT_GT(compressed.checkpoints().stats().compressed_pages, 0u);

    // ...but changes nothing observable: same replay clock, same number
    // of checkpoints, every checkpoint digest pairwise identical.
    EXPECT_EQ(raw_vm->cpu().cycles(), compressed_vm->cpu().cycles());
    ASSERT_EQ(raw.checkpoints().size(), compressed.checkpoints().size());
    for (std::size_t i = 0; i < raw.checkpoints().size(); ++i)
        EXPECT_EQ(replay::digest_of(*raw.checkpoints().at(i)),
                  replay::digest_of(*compressed.checkpoints().at(i)))
            << "checkpoint " << i;

    // Restoring the same checkpoint from either store lands both
    // machines in the identical state.
    const std::size_t middle = raw.checkpoints().size() / 2;
    auto from_raw = factory();
    auto from_compressed = factory();
    rnr::Replayer env_a(from_raw.get(), &log, 0, rnr::ReplayOptions{});
    rnr::Replayer env_b(from_compressed.get(), &log, 0,
                        rnr::ReplayOptions{});
    replay::restore_checkpoint(*raw.checkpoints().at(middle),
                               from_raw.get(), &env_a);
    replay::restore_checkpoint(*compressed.checkpoints().at(middle),
                               from_compressed.get(), &env_b);
    EXPECT_EQ(from_raw->state_hash(), from_compressed->state_hash());
}

// ---------------------------------------------------------------------
// The complete checkpoint image.

TEST(CkptImage, WireRoundTripIsCanonicalAndRestorable)
{
    const auto profile = small_profile("fileio", 200);
    auto factory = workloads::vm_factory(profile);
    auto recorded = record(profile);
    const auto& log = recorded.recorder->log();

    auto cr_vm = factory();
    replay::CrOptions options;
    options.checkpoint_interval = 1'500'000;
    options.max_checkpoints = 0;
    replay::CheckpointReplayer cr(cr_vm.get(), &log, options);
    ASSERT_EQ(cr.run(), rnr::ReplayOutcome::kFinished);
    ASSERT_GE(cr.checkpoints().size(), 2u);

    const auto ck = cr.checkpoints().at(cr.checkpoints().size() / 2);
    const auto image = replay::ckpt::serialize_checkpoint(*ck);

    replay::Checkpoint shipped;
    const Status status =
        replay::ckpt::deserialize_checkpoint(image, &shipped);
    ASSERT_TRUE(status.ok()) << status.to_string();

    // Same machine instant, canonical bytes.
    EXPECT_EQ(replay::digest_of(shipped), replay::digest_of(*ck));
    EXPECT_EQ(replay::ckpt::serialize_checkpoint(shipped), image);

    // A VM restored from the *deserialized* checkpoint replays to the
    // recorded machine's exact final state — the remote-AR property.
    auto resume_vm = factory();
    rnr::Replayer resume(resume_vm.get(), &log, shipped.log_pos,
                         rnr::ReplayOptions{});
    replay::restore_checkpoint(shipped, resume_vm.get(), &resume);
    EXPECT_EQ(resume_vm->cpu().icount(), ck->icount);
    ASSERT_EQ(resume.run(), rnr::ReplayOutcome::kFinished);
    EXPECT_EQ(resume_vm->state_hash(), recorded.vm->state_hash());
}

TEST(CkptImage, DamageLandsInStatusNeverAborts)
{
    auto profile = small_profile();
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(1);
    const auto ck = store.take(*vm, env, 0);
    const auto image = replay::ckpt::serialize_checkpoint(*ck);

    replay::Checkpoint out;
    // Every truncation point decodes to a clean error.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{1}, std::size_t{16},
          std::size_t{31}, image.size() / 2, image.size() - 1}) {
        const std::vector<std::uint8_t> cut(image.begin(),
                                            image.begin() + keep);
        EXPECT_FALSE(replay::ckpt::deserialize_checkpoint(cut, &out).ok())
            << "kept " << keep << " bytes";
    }
    // Bit flips across the image: header, meta, slot map, page frames.
    for (std::size_t pos = 0; pos < image.size();
         pos += image.size() / 97 + 1) {
        std::vector<std::uint8_t> flipped = image;
        flipped[pos] ^= 0x20;
        (void)replay::ckpt::deserialize_checkpoint(flipped, &out);
    }
}

// ---------------------------------------------------------------------
// The AR side: clean checkpoint-unavailable verdicts and booting from a
// deserialized image.

core::VmFactory
attack_factory()
{
    workloads::AttackMixOptions options;
    options.iterations_per_task = 120;
    return workloads::attack_mix(options).factory;
}

TEST(ArStage, MissingCheckpointYieldsACleanVerdictNotACrash)
{
    const auto profile = small_profile();
    auto factory = workloads::vm_factory(profile);
    auto recorded = record(profile);

    core::ArStage stage(factory, rnr::ReplayOptions{}, nullptr);
    replay::PendingAlarm pending;
    pending.log_index = 3;
    pending.record.type = rnr::RecordType::kRasAlarm;
    pending.checkpoint = nullptr;  // interval 0, or recycled past it

    stats::StatRegistry stats;
    const auto result =
        stage.analyze(pending, &recorded.recorder->log(), &stats);
    EXPECT_FALSE(result.analysis.is_attack);
    EXPECT_EQ(result.analysis.cause,
              replay::AlarmCause::kCheckpointUnavailable);
    EXPECT_NE(result.analysis.report.find("checkpoint unavailable"),
              std::string::npos);
    EXPECT_EQ(stats.counter("ar.ckpt_unavailable").value(), 1u);
    EXPECT_EQ(stats.counter("ar.replays").value(), 0u);
}

TEST(ArStage, RejectedImageYieldsACleanVerdictNotACrash)
{
    const auto profile = small_profile();
    auto factory = workloads::vm_factory(profile);
    auto recorded = record(profile);

    core::ArStage stage(factory, rnr::ReplayOptions{}, nullptr);
    replay::PendingAlarm pending;
    pending.log_index = 3;
    pending.record.type = rnr::RecordType::kRasAlarm;

    rnr::InputLogSource source(&recorded.recorder->log());
    stats::StatRegistry stats;
    const std::vector<std::uint8_t> garbage = {0x00, 0x01, 0x02};
    const auto result =
        stage.analyze_image(pending, garbage, &source, &stats);
    EXPECT_FALSE(result.analysis.is_attack);
    EXPECT_EQ(result.analysis.cause,
              replay::AlarmCause::kCheckpointUnavailable);
    EXPECT_NE(result.analysis.report.find("image rejected"),
              std::string::npos);
    EXPECT_EQ(stats.counter("ar.ckpt_unavailable").value(), 1u);
}

TEST(ArStage, BootsFromDeserializedCheckpointWithIdenticalVerdicts)
{
    // Run the attack mix through the framework to harvest real pending
    // alarms, then analyze each twice: from the in-memory checkpoint and
    // from its serialized wire image. Verdicts, reports, cycle costs,
    // and counter snapshots must be bit-identical.
    const auto factory = attack_factory();
    core::RnrSafeFramework framework(factory, core::FrameworkConfig{});
    auto result = framework.run();
    ASSERT_TRUE(result.alarms.attack_detected());
    ASSERT_FALSE(result.cr->pending_alarms().empty());

    core::ArStage stage(factory, rnr::ReplayOptions{}, nullptr);
    const auto& log = result.recorder->log();
    for (const auto& pending : result.cr->pending_alarms()) {
        ASSERT_NE(pending.checkpoint, nullptr);
        stats::StatRegistry direct_stats, shipped_stats;
        const auto direct = stage.analyze(pending, &log, &direct_stats);

        const auto image =
            replay::ckpt::serialize_checkpoint(*pending.checkpoint);
        rnr::InputLogSource source(&log);
        const auto shipped =
            stage.analyze_image(pending, image, &source, &shipped_stats);

        EXPECT_EQ(shipped.analysis.cause, direct.analysis.cause);
        EXPECT_EQ(shipped.analysis.is_attack, direct.analysis.is_attack);
        EXPECT_EQ(shipped.analysis.report, direct.analysis.report);
        EXPECT_EQ(shipped.analysis.analysis_cycles,
                  direct.analysis.analysis_cycles);
        EXPECT_EQ(shipped.deep_rerun, direct.deep_rerun);
        EXPECT_EQ(shipped_stats.snapshot(), direct_stats.snapshot());
    }
}

/** @p factory, but every RAM page and disk block is rewritten with its
 *  own bytes first: no page is pristine, so restore takes the full path. */
core::VmFactory
all_written(core::VmFactory factory)
{
    return [factory] {
        auto vm = factory();
        auto& mem = vm->mem();
        std::vector<std::uint8_t> bytes(kPageSize);
        for (Addr page = 0; page < mem.num_pages(); ++page) {
            mem.read_block(page * kPageSize, bytes.data(), kPageSize);
            mem.write_block(page * kPageSize, bytes.data(), kPageSize);
        }
        auto& disk = vm->hub().disk();
        for (BlockNum block = 0; block < disk.num_pages(); ++block) {
            disk.read(block, bytes.data());
            disk.write(block, bytes.data());
        }
        return vm;
    };
}

TEST(ArStage, PristineSkipRestoresExactlyWhatTheFullPathDoes)
{
    const auto factory = attack_factory();
    const auto written = all_written(factory);
    // Checkpoints well into the run, so the restored images hold pages
    // the run made nonzero that are pristine in a fresh VM.
    core::FrameworkConfig config;
    config.cr.checkpoint_interval = 20'000;
    core::RnrSafeFramework framework(factory, config);
    auto result = framework.run();
    const auto& log = result.recorder->log();
    ASSERT_FALSE(result.cr->pending_alarms().empty());
    ASSERT_GT(result.cr->pending_alarms().back().checkpoint->icount, 0u);

    core::ArStage fresh_stage(factory, rnr::ReplayOptions{}, nullptr);
    core::ArStage full_stage(written, rnr::ReplayOptions{}, nullptr);
    for (const auto& pending : result.cr->pending_alarms()) {
        ASSERT_NE(pending.checkpoint, nullptr);
        const auto image =
            replay::ckpt::serialize_checkpoint(*pending.checkpoint);
        replay::Checkpoint shipped;
        ASSERT_TRUE(replay::ckpt::deserialize_checkpoint(image, &shipped)
                        .ok());

        // The restored machine, in-memory and shipped.
        for (const replay::Checkpoint* ck :
             {pending.checkpoint.get(),
              static_cast<const replay::Checkpoint*>(&shipped)}) {
            auto fresh = factory();
            auto full = written();
            ASSERT_EQ(pristine_pages(*full), 0u);
            rnr::Replayer fresh_env(fresh.get(), &log, ck->log_pos,
                                    rnr::ReplayOptions{});
            rnr::Replayer full_env(full.get(), &log, ck->log_pos,
                                   rnr::ReplayOptions{});
            replay::restore_checkpoint(*ck, fresh.get(), &fresh_env);
            replay::restore_checkpoint(*ck, full.get(), &full_env);
            EXPECT_GT(pristine_pages(*fresh), 0u) << "nothing was skipped";
            EXPECT_EQ(fresh->state_hash(), full->state_hash());
        }

        // The AR verdicts, both ways.
        stats::StatRegistry fresh_stats, full_stats;
        const auto a = fresh_stage.analyze(pending, &log, &fresh_stats);
        const auto b = full_stage.analyze(pending, &log, &full_stats);
        rnr::InputLogSource source_a(&log), source_b(&log);
        const auto c =
            fresh_stage.analyze_image(pending, image, &source_a, &fresh_stats);
        const auto d =
            full_stage.analyze_image(pending, image, &source_b, &full_stats);
        for (const auto* other : {&b, &c, &d}) {
            EXPECT_EQ(other->analysis.cause, a.analysis.cause);
            EXPECT_EQ(other->analysis.is_attack, a.analysis.is_attack);
            EXPECT_EQ(other->analysis.report, a.analysis.report);
            EXPECT_EQ(other->analysis.analysis_cycles,
                      a.analysis.analysis_cycles);
            EXPECT_EQ(other->deep_rerun, a.deep_rerun);
        }
        EXPECT_EQ(fresh_stats.snapshot(), full_stats.snapshot());
    }
}

// ---------------------------------------------------------------------
// The fleet ship mode.

fleet::FleetResult
run_fleet(const core::VmFactory& factory, bool ship)
{
    fleet::FleetOptions options;
    options.workers = 2;
    options.ship_checkpoints = ship;
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kConcurrent;
    fleet::ReplayFleet fleet({{"t", factory, config}}, options);
    return fleet.run();
}

void
expect_ship_matches_in_memory(const core::VmFactory& factory)
{
    const auto in_memory = run_fleet(factory, false);
    const auto shipped = run_fleet(factory, true);
    ASSERT_EQ(in_memory.tenants.size(), 1u);
    ASSERT_EQ(shipped.tenants.size(), 1u);

    const auto& a = in_memory.tenants[0].result;
    const auto& b = shipped.tenants[0].result;
    ASSERT_EQ(a.ar_results.size(), b.ar_results.size());
    ASSERT_FALSE(a.ar_results.empty());
    for (std::size_t i = 0; i < a.ar_results.size(); ++i) {
        EXPECT_EQ(b.ar_results[i].analysis.cause,
                  a.ar_results[i].analysis.cause);
        EXPECT_EQ(b.ar_results[i].analysis.report,
                  a.ar_results[i].analysis.report);
        EXPECT_EQ(b.ar_results[i].analysis.analysis_cycles,
                  a.ar_results[i].analysis.analysis_cycles);
    }
    EXPECT_EQ(b.alarms.attack_detected(), a.alarms.attack_detected());
    EXPECT_EQ(b.cr_vm->state_hash(), a.cr_vm->state_hash());
    EXPECT_EQ(b.pipeline_stats.snapshot(), a.pipeline_stats.snapshot());

    // Ship-mode volume is visible, but only outside the counters.
    EXPECT_EQ(in_memory.tenants[0].jobs_shipped, 0u);
    EXPECT_EQ(shipped.tenants[0].jobs_shipped, a.ar_results.size());
    EXPECT_GT(shipped.tenants[0].bytes_shipped, 0u);
}

TEST(FleetShip, ShippedCheckpointsMatchInMemoryJobsBitForBit)
{
    expect_ship_matches_in_memory(attack_factory());
}

TEST(FleetShip, ShippedCheckpointsMatchWithTranslationBlocksOff)
{
    expect_ship_matches_in_memory(test::interpreter_only(attack_factory()));
}

}  // namespace
}  // namespace rsafe
