/** @file Unit tests for guest memory and the page store behind RAM and disk. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/log.h"
#include "mem/page_store.h"
#include "mem/phys_mem.h"

namespace rsafe::mem {
namespace {

TEST(PhysMem, RoundsUpToPages)
{
    PhysMem mem(kPageSize + 1);
    EXPECT_EQ(mem.size(), 2 * kPageSize);
    EXPECT_EQ(mem.num_pages(), 2u);
}

TEST(PhysMem, ZeroSizedFails)
{
    EXPECT_THROW(PhysMem(0), FatalError);
}

TEST(PhysMem, ReadWriteLittleEndian)
{
    PhysMem mem(kPageSize);
    ASSERT_EQ(mem.write(0x10, 8, 0x1122334455667788ULL), MemResult::kOk);
    Word out = 0;
    ASSERT_EQ(mem.read(0x10, 8, &out), MemResult::kOk);
    EXPECT_EQ(out, 0x1122334455667788ULL);
    ASSERT_EQ(mem.read(0x10, 1, &out), MemResult::kOk);
    EXPECT_EQ(out, 0x88u);  // little-endian low byte first
}

TEST(PhysMem, OutOfRangeRejected)
{
    PhysMem mem(kPageSize);
    Word out;
    EXPECT_EQ(mem.read(kPageSize - 4, 8, &out), MemResult::kOutOfRange);
    EXPECT_EQ(mem.write(kPageSize, 1, 0), MemResult::kOutOfRange);
}

TEST(PhysMem, WxPermissionsEnforced)
{
    PhysMem mem(4 * kPageSize);
    mem.set_perms(0, kPageSize, kPermRX);
    mem.set_perms(kPageSize, kPageSize, kPermRW);

    // Store to an executable page fails: the W^X invariant.
    EXPECT_EQ(mem.write(0x10, 8, 1), MemResult::kNoPerm);
    // Fetch from a data page fails.
    std::uint8_t instr[kInstrBytes];
    EXPECT_EQ(mem.fetch(kPageSize + 8, instr), MemResult::kNoPerm);
    // The legal directions work.
    EXPECT_EQ(mem.fetch(0, instr), MemResult::kOk);
    EXPECT_EQ(mem.write(kPageSize, 8, 1), MemResult::kOk);
    Word out;
    EXPECT_EQ(mem.read(0, 8, &out), MemResult::kOk);  // RX allows reads
}

TEST(PhysMem, NoPermPageBlocksEverything)
{
    PhysMem mem(2 * kPageSize);
    mem.set_perms(0, kPageSize, kPermNone);
    Word out;
    std::uint8_t instr[kInstrBytes];
    EXPECT_EQ(mem.read(0, 8, &out), MemResult::kNoPerm);
    EXPECT_EQ(mem.write(0, 8, 1), MemResult::kNoPerm);
    EXPECT_EQ(mem.fetch(0, instr), MemResult::kNoPerm);
    EXPECT_EQ(mem.perms_at(0), kPermNone);
}

TEST(PhysMem, RawAccessIgnoresPerms)
{
    PhysMem mem(kPageSize);
    mem.set_perms(0, kPageSize, kPermNone);
    mem.write_raw(0x20, 8, 0xabcd);
    EXPECT_EQ(mem.read_raw(0x20, 8), 0xabcdu);
}

TEST(PhysMem, DirtyTracking)
{
    PhysMem mem(4 * kPageSize);
    mem.clear_dirty();
    EXPECT_EQ(mem.pages().dirty_count(), 0u);
    ASSERT_EQ(mem.write(kPageSize + 8, 8, 7), MemResult::kOk);
    ASSERT_EQ(mem.write(3 * kPageSize, 8, 7), MemResult::kOk);
    const auto dirty = mem.pages().dirty_pages();
    ASSERT_EQ(dirty.size(), 2u);
    EXPECT_EQ(dirty[0], 1u);
    EXPECT_EQ(dirty[1], 3u);
    mem.clear_dirty();
    EXPECT_EQ(mem.pages().dirty_count(), 0u);
}

TEST(PhysMem, StraddlingWriteDirtiesBothPages)
{
    PhysMem mem(2 * kPageSize);
    mem.clear_dirty();
    ASSERT_EQ(mem.write(kPageSize - 4, 8, ~0ULL), MemResult::kOk);
    EXPECT_EQ(mem.pages().dirty_pages().size(), 2u);
}

TEST(PhysMem, BlockTransfersAndPageData)
{
    PhysMem mem(2 * kPageSize);
    std::uint8_t buf[16];
    for (int i = 0; i < 16; ++i)
        buf[i] = static_cast<std::uint8_t>(i);
    mem.write_block(100, buf, 16);
    std::uint8_t out[16];
    mem.read_block(100, out, 16);
    EXPECT_EQ(0, memcmp(buf, out, 16));
    EXPECT_EQ(mem.page_data(0)[100], 0);
    EXPECT_EQ(mem.page_data(0)[105], 5);
}

TEST(PhysMem, RestorePage)
{
    PhysMem mem(2 * kPageSize);
    std::vector<std::uint8_t> page(kPageSize, 0x5a);
    mem.clear_dirty();
    mem.restore_page(1, page.data());
    EXPECT_EQ(mem.read_raw(kPageSize, 1), 0x5au);
    EXPECT_EQ(mem.pages().dirty_pages(), std::vector<std::uint64_t>{1});
}

TEST(PhysMem, ContentHashDetectsChanges)
{
    PhysMem a(2 * kPageSize), b(2 * kPageSize);
    EXPECT_EQ(a.content_hash(), b.content_hash());
    a.write_raw(17, 1, 1);
    EXPECT_NE(a.content_hash(), b.content_hash());
    b.write_raw(17, 1, 1);
    EXPECT_EQ(a.content_hash(), b.content_hash());
}

/** Byte-at-a-time FNV-1a 64 over @p bytes: the content-hash reference. */
std::uint64_t
fnv_bytes(const std::vector<std::uint8_t>& bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const std::uint8_t byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::vector<std::uint8_t>
all_bytes(const PhysMem& mem)
{
    std::vector<std::uint8_t> bytes(mem.size());
    mem.read_block(0, bytes.data(), bytes.size());
    return bytes;
}

TEST(PhysMem, FreshMemoryIsPristineEverywhereAndReadsZero)
{
    PhysMem mem(4 * kPageSize);
    for (Addr page = 0; page < mem.num_pages(); ++page)
        EXPECT_TRUE(mem.pages().pristine(page)) << "page " << page;
    EXPECT_EQ(all_bytes(mem), std::vector<std::uint8_t>(mem.size(), 0));
    Word out = 1;
    ASSERT_EQ(mem.read(kPageSize + 8, 8, &out), MemResult::kOk);
    EXPECT_EQ(out, 0u);
}

TEST(PhysMem, EveryByteChangingEntryPointClearsPristine)
{
    const std::vector<std::uint8_t> buf(kPageSize, 0x5a);
    struct Case {
        std::string name;
        std::function<void(PhysMem&)> op;
        std::vector<Addr> touched;
    };
    const std::vector<Case> cases = {
        {"write", [](PhysMem& m) { m.write(kPageSize + 8, 8, 0x77); }, {1}},
        {"straddling write",
         [](PhysMem& m) { m.write(2 * kPageSize - 4, 8, ~0ULL); },
         {1, 2}},
        {"write_raw", [](PhysMem& m) { m.write_raw(3 * kPageSize, 2, 9); },
         {3}},
        {"write_block",
         [&](PhysMem& m) { m.write_block(kPageSize - 2, buf.data(), 4); },
         {0, 1}},
        {"load_image",
         [](PhysMem& m) {
             m.load_image(isa::Image(2 * kPageSize + 16, {1, 2, 3}));
         },
         {2}},
        {"restore_page", [&](PhysMem& m) { m.restore_page(3, buf.data()); },
         {3}},
    };
    for (const Case& c : cases) {
        PhysMem mem(4 * kPageSize);
        c.op(mem);
        for (Addr page = 0; page < mem.num_pages(); ++page) {
            const bool touched =
                std::find(c.touched.begin(), c.touched.end(), page) !=
                c.touched.end();
            EXPECT_EQ(mem.pages().pristine(page), !touched)
                << c.name << ", page " << page;
        }
    }
}

TEST(PhysMem, RefusedStoreLeavesThePagePristine)
{
    PhysMem mem(2 * kPageSize);
    mem.set_perms(0, kPageSize, kPermRX);
    EXPECT_EQ(mem.write(8, 8, 1), MemResult::kNoPerm);
    EXPECT_EQ(mem.write(2 * kPageSize, 8, 1), MemResult::kOutOfRange);
    EXPECT_TRUE(mem.pages().pristine(0));
    EXPECT_TRUE(mem.pages().pristine(1));
}

TEST(PhysMem, PristineNeverReturnsEvenForAZeroedPage)
{
    PhysMem mem(2 * kPageSize);
    ASSERT_EQ(mem.write(16, 8, 0x1234), MemResult::kOk);
    ASSERT_EQ(mem.write(16, 8, 0), MemResult::kOk);  // back to all zero
    EXPECT_FALSE(mem.pages().pristine(0));
    for (int i = 0; i < 3; ++i) {
        mem.clear_dirty();
        EXPECT_FALSE(mem.pages().pristine(0)) << "clear_dirty #" << i;
        EXPECT_TRUE(mem.pages().pristine(1));
    }
    // A zero store into a pristine page still counts as a write.
    ASSERT_EQ(mem.write(kPageSize, 8, 0), MemResult::kOk);
    EXPECT_FALSE(mem.pages().pristine(1));
}

TEST(PhysMem, ContentHashSkipsPristinePagesButMatchesEveryByte)
{
    PhysMem mem(5 * kPageSize);
    EXPECT_EQ(mem.content_hash(), fnv_bytes(all_bytes(mem)));
    mem.write_raw(kPageSize + 3, 1, 0xee);
    mem.write(4 * kPageSize - 8, 8, 0);  // written, still all zero
    EXPECT_EQ(mem.content_hash(), fnv_bytes(all_bytes(mem)));
}

// The inline word path (aligned, in-page, 8 bytes on a non-X page) and
// the out-of-line path behind it must agree at every edge.

TEST(PhysMem, LastAlignedWordOfRam)
{
    PhysMem mem(2 * kPageSize);
    const Addr last = mem.size() - 8;
    mem.clear_dirty();
    ASSERT_EQ(mem.write(last, 8, 0x0102030405060708ULL), MemResult::kOk);
    Word out = 0;
    ASSERT_EQ(mem.read(last, 8, &out), MemResult::kOk);
    EXPECT_EQ(out, 0x0102030405060708ULL);
    EXPECT_EQ(mem.read_raw(mem.size() - 1, 1), 0x01u);
    EXPECT_EQ(mem.pages().dirty_pages(), std::vector<std::uint64_t>{1});
    // One word further is past the end, aligned or not.
    EXPECT_EQ(mem.read(mem.size(), 8, &out), MemResult::kOutOfRange);
    EXPECT_EQ(mem.write(mem.size(), 8, 1), MemResult::kOutOfRange);
    EXPECT_EQ(mem.read(last + 4, 8, &out), MemResult::kOutOfRange);
}

TEST(PhysMem, AccessWrappingPastTheAddressSpaceIsOutOfRange)
{
    PhysMem mem(kPageSize);
    const Addr aligned = ~static_cast<Addr>(7);  // addr + 8 wraps to 0
    const Addr unaligned = ~static_cast<Addr>(3);
    Word out = 5;
    EXPECT_EQ(mem.read(aligned, 8, &out), MemResult::kOutOfRange);
    EXPECT_EQ(mem.write(aligned, 8, 1), MemResult::kOutOfRange);
    EXPECT_EQ(mem.read(unaligned, 8, &out), MemResult::kOutOfRange);
    EXPECT_EQ(mem.write(unaligned, 8, 1), MemResult::kOutOfRange);
    EXPECT_EQ(out, 5u);
    EXPECT_EQ(mem.pages().dirty_count(), 0u);
}

TEST(PhysMem, UnalignedInPageAccessRoundTrips)
{
    PhysMem mem(2 * kPageSize);
    mem.clear_dirty();
    ASSERT_EQ(mem.write(kPageSize + 3, 8, 0x1122334455667788ULL),
              MemResult::kOk);
    Word out = 0;
    ASSERT_EQ(mem.read(kPageSize + 3, 8, &out), MemResult::kOk);
    EXPECT_EQ(out, 0x1122334455667788ULL);
    EXPECT_EQ(mem.read_raw(kPageSize + 3, 1), 0x88u);
    EXPECT_EQ(mem.pages().dirty_pages(), std::vector<std::uint64_t>{1});
}

TEST(PhysMem, StraddlingAccessRoundTripsAndNeedsBothPages)
{
    PhysMem mem(3 * kPageSize);
    const Addr addr = 2 * kPageSize - 3;
    ASSERT_EQ(mem.write(addr, 8, 0xa1b2c3d4e5f60718ULL), MemResult::kOk);
    Word out = 0;
    ASSERT_EQ(mem.read(addr, 8, &out), MemResult::kOk);
    EXPECT_EQ(out, 0xa1b2c3d4e5f60718ULL);
    mem.set_perms(2 * kPageSize, kPageSize, kPermNone);
    EXPECT_EQ(mem.read(addr, 8, &out), MemResult::kNoPerm);
    EXPECT_EQ(mem.write(addr, 8, 0), MemResult::kNoPerm);
}

TEST(PhysMem, LoadFromANoReadPageFails)
{
    PhysMem mem(2 * kPageSize);
    mem.write_raw(kPageSize + 16, 8, 0x99);
    mem.set_perms(kPageSize, kPageSize, kPermWrite);  // write-only
    Word out = 7;
    EXPECT_EQ(mem.read(kPageSize + 16, 8, &out), MemResult::kNoPerm);
    EXPECT_EQ(mem.read(kPageSize + 16, 1, &out), MemResult::kNoPerm);
    EXPECT_EQ(out, 7u);
    EXPECT_EQ(mem.write(kPageSize + 16, 8, 1), MemResult::kOk);
}

/** Counts the generation bumps PhysMem reports, per page. */
class CountingListener : public CodeWriteListener {
  public:
    void on_code_page_touched(Addr page) override { pages.push_back(page); }
    std::vector<Addr> pages;
};

TEST(PhysMem, StoreToAnRxPageIsRefusedWithoutSideEffects)
{
    PhysMem mem(2 * kPageSize);
    mem.set_perms(0, kPageSize, kPermRX);
    CountingListener listener;
    mem.add_code_listener(&listener);
    mem.clear_dirty();
    const std::uint64_t gen = mem.page_gen(0);
    EXPECT_EQ(mem.write(16, 8, 1), MemResult::kNoPerm);
    EXPECT_EQ(mem.write(17, 1, 1), MemResult::kNoPerm);
    EXPECT_EQ(mem.page_gen(0), gen);
    EXPECT_TRUE(listener.pages.empty());
    EXPECT_EQ(mem.pages().dirty_count(), 0u);
    EXPECT_EQ(mem.read_raw(16, 8), 0u);
    mem.remove_code_listener(&listener);
}

TEST(PhysMem, StoreToAnRwxPageBumpsTheGenerationAndNotifiesOnce)
{
    PhysMem mem(2 * kPageSize);
    mem.set_perms(kPageSize, kPageSize, kPermRWX);
    CountingListener listener;
    mem.add_code_listener(&listener);
    mem.clear_dirty();
    const std::uint64_t gen = mem.page_gen(1);
    ASSERT_EQ(mem.write(kPageSize + 8, 8, 0xfeed), MemResult::kOk);
    EXPECT_EQ(mem.page_gen(1), gen + 1);
    EXPECT_EQ(listener.pages, std::vector<Addr>{1});
    EXPECT_EQ(mem.read_raw(kPageSize + 8, 8), 0xfeedu);
    EXPECT_EQ(mem.pages().dirty_pages(), std::vector<std::uint64_t>{1});
    // A store to an RW page leaves every generation alone.
    ASSERT_EQ(mem.write(8, 8, 1), MemResult::kOk);
    EXPECT_EQ(listener.pages, std::vector<Addr>{1});
    mem.remove_code_listener(&listener);
}

TEST(PhysMem, WordAndByteStoresMarkDirtyAndClearPristine)
{
    PhysMem mem(4 * kPageSize);
    ASSERT_EQ(mem.write(kPageSize + 8, 8, 0), MemResult::kOk);    // word
    ASSERT_EQ(mem.write(3 * kPageSize + 5, 1, 0), MemResult::kOk);  // byte
    EXPECT_TRUE(mem.pages().pristine(0));
    EXPECT_FALSE(mem.pages().pristine(1));
    EXPECT_TRUE(mem.pages().pristine(2));
    EXPECT_FALSE(mem.pages().pristine(3));
    EXPECT_EQ(mem.pages().dirty_pages(), (std::vector<std::uint64_t>{1, 3}));
    mem.clear_dirty();
    // A repeated store to a page already dirty in this interval, and a
    // load, leave the count alone; the first store after clear counts.
    ASSERT_EQ(mem.write(kPageSize + 16, 8, 3), MemResult::kOk);
    ASSERT_EQ(mem.write(kPageSize + 24, 8, 4), MemResult::kOk);
    Word out;
    ASSERT_EQ(mem.read(2 * kPageSize, 8, &out), MemResult::kOk);
    EXPECT_EQ(mem.pages().dirty_count(), 1u);
    EXPECT_TRUE(mem.pages().pristine(2));
}

// The guest disk is a PageStore (one block per page): these pin the
// store's behaviour through the disk's block-level use of it.

TEST(Disk, ReadWriteBlocks)
{
    PageStore disk(4);
    std::vector<std::uint8_t> block(kDiskBlockSize, 0x11);
    disk.write(2, block.data());
    std::vector<std::uint8_t> out(kDiskBlockSize);
    disk.read(2, out.data());
    EXPECT_EQ(out[0], 0x11);
    EXPECT_EQ(out[kDiskBlockSize - 1], 0x11);
}

TEST(Disk, DirtyTracking)
{
    PageStore disk(4);
    std::vector<std::uint8_t> block(kDiskBlockSize, 0x22);
    disk.write(3, block.data());
    disk.write(1, block.data());
    const auto dirty = disk.dirty_pages();
    ASSERT_EQ(dirty.size(), 2u);
    EXPECT_EQ(dirty[0], 1u);
    EXPECT_EQ(dirty[1], 3u);
    disk.clear_dirty();
    EXPECT_EQ(disk.dirty_count(), 0u);
}

TEST(Disk, OutOfRangePanics)
{
    PageStore disk(2);
    std::vector<std::uint8_t> block(kDiskBlockSize);
    EXPECT_THROW(disk.read(2, block.data()), PanicError);
    EXPECT_THROW(disk.write(9, block.data()), PanicError);
    EXPECT_THROW(disk.data(5), PanicError);
}

TEST(Disk, ZeroBlocksFails)
{
    EXPECT_THROW(PageStore(0), FatalError);
}

TEST(Disk, FreshDiskIsPristineEverywhereAndReadsZero)
{
    PageStore disk(3);
    std::vector<std::uint8_t> out(kDiskBlockSize, 0xff);
    for (BlockNum block = 0; block < disk.num_pages(); ++block) {
        EXPECT_TRUE(disk.pristine(block)) << "block " << block;
        disk.read(block, out.data());
        EXPECT_EQ(out, std::vector<std::uint8_t>(kDiskBlockSize, 0));
    }
}

TEST(Disk, WriteBlockClearsPristineForGood)
{
    PageStore disk(3);
    const std::vector<std::uint8_t> zero(kDiskBlockSize, 0);
    disk.write(1, zero.data());  // a zero write is still a write
    EXPECT_TRUE(disk.pristine(0));
    EXPECT_FALSE(disk.pristine(1));
    EXPECT_TRUE(disk.pristine(2));
    disk.clear_dirty();
    disk.clear_dirty();
    EXPECT_FALSE(disk.pristine(1));
}

TEST(Disk, ContentHashSkipsPristineBlocksButMatchesEveryByte)
{
    PageStore disk(3);
    std::vector<std::uint8_t> block(kDiskBlockSize, 0);
    block[100] = 7;
    disk.write(2, block.data());
    std::vector<std::uint8_t> bytes(2 * kDiskBlockSize, 0);
    bytes.insert(bytes.end(), block.begin(), block.end());
    EXPECT_EQ(disk.content_hash(), fnv_bytes(bytes));
}

TEST(Disk, ContentHashDetectsChanges)
{
    PageStore a(2), b(2);
    EXPECT_EQ(a.content_hash(), b.content_hash());
    std::vector<std::uint8_t> block(kDiskBlockSize, 1);
    a.write(0, block.data());
    EXPECT_NE(a.content_hash(), b.content_hash());
}

}  // namespace
}  // namespace rsafe::mem
