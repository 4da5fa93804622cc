/** @file Tests of the static policy engine: the value-set pass, the
 *  policy wire format, the checked-in goldens, and the soundness of the
 *  static target sets against runtime-taken transfers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <utility>
#include <vector>

#include "analysis/policy.h"
#include "hv/hypervisor.h"
#include "isa/assembler.h"
#include "kernel/kernel_builder.h"
#include "kernel/layout.h"
#include "rnr/wire.h"
#include "test_util.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

namespace k = rsafe::kernel;

using isa::R5;
using isa::R6;
using isa::R7;
using isa::R9;

constexpr Addr kTable = k::kUserDataBase + 21 * 0x10000;

/** Minimal user-space memory shape for the hand-built unit images. */
analysis::PolicyConfig
user_only_config()
{
    analysis::PolicyConfig config;
    config.memory.executable = {{k::kUserCodeBase, k::kUserCodeLimit}};
    config.memory.writable = {{k::kUserDataBase, k::kUserDataLimit}};
    return config;
}

/** The single callr site of @p policy (the unit images have one). */
const analysis::IndirectSite&
only_call_site(const analysis::StaticPolicy& policy)
{
    const analysis::IndirectSite* found = nullptr;
    for (const auto& site : policy.sites) {
        if (!site.is_call)
            continue;
        EXPECT_EQ(found, nullptr) << "more than one callr site";
        found = &site;
    }
    EXPECT_NE(found, nullptr) << "no callr site recovered";
    return *found;
}

TEST(ValueSet, DispatchIdiomResolvesToTheStoredTargets)
{
    // Two handlers are published into one table slot; the dispatch loads
    // the slot and calls through it. The interprocedural store map must
    // bound the site to exactly the two published entries.
    isa::Assembler a(k::kUserCodeBase);
    a.func_begin("h_a");
    a.nop();
    a.ret();
    a.func_end();
    a.func_begin("h_b");
    a.nop();
    a.ret();
    a.func_end();
    a.func_begin("main");
    a.ldi(R6, static_cast<std::int64_t>(kTable));
    a.ldi_label(R7, "h_a");
    a.st(R6, 0, R7);
    a.ldi_label(R7, "h_b");
    a.st(R6, 0, R7);
    a.ldi(R6, static_cast<std::int64_t>(kTable));
    a.ld(R5, R6, 0);
    a.callr(R5);
    a.ret();
    a.func_end();
    const auto image = a.link();

    const auto policy =
        analysis::build_policy({&image}, user_only_config());
    const auto& site = only_call_site(policy);
    ASSERT_TRUE(site.resolved);
    const std::vector<Addr> want = {image.symbol("h_a"),
                                    image.symbol("h_b")};
    EXPECT_EQ(site.targets, want);
    EXPECT_FALSE(policy.unbounded_store);
    // The store landed in the declared writable map, on its own page.
    ASSERT_FALSE(policy.written.empty());
    bool covered = false;
    for (const auto& region : policy.written)
        covered |= region.contains(kTable);
    EXPECT_TRUE(covered);
}

TEST(ValueSet, UnknownAddressStoreWidensEverySlot)
{
    // A store through a register the analysis cannot bound poisons the
    // whole store map: every table-slot load degrades to unresolved and
    // the unbounded_store bit is raised.
    isa::Assembler a(k::kUserCodeBase);
    a.func_begin("h_a");
    a.nop();
    a.ret();
    a.func_end();
    a.func_begin("wild");
    a.st(R9, 0, R7);  // R9 is unknown at block entry
    a.ret();
    a.func_end();
    a.func_begin("main");
    a.ldi(R6, static_cast<std::int64_t>(kTable));
    a.ldi_label(R7, "h_a");
    a.st(R6, 0, R7);
    a.ldi(R6, static_cast<std::int64_t>(kTable));
    a.ld(R5, R6, 0);
    a.callr(R5);
    a.ret();
    a.func_end();
    const auto image = a.link();

    const auto policy =
        analysis::build_policy({&image}, user_only_config());
    EXPECT_TRUE(policy.unbounded_store);
    const auto& site = only_call_site(policy);
    EXPECT_FALSE(site.resolved);
    EXPECT_TRUE(site.targets.empty());
    // The widened written map covers the whole declared writable space.
    ASSERT_FALSE(policy.written.empty());
    bool covered = false;
    for (const auto& region : policy.written)
        covered |= region.contains(k::kUserDataBase) &&
                   region.contains(k::kUserDataLimit - 1);
    EXPECT_TRUE(covered);
}

TEST(ValueSet, DeclaredTableSlotSurvivesAnUnknownAddressStore)
{
    // Same wild store as above, but the table slot now lives in a
    // declared write-disciplined table region: the slot keeps its exact
    // target set while the W^X written map still widens conservatively.
    isa::Assembler a(k::kUserCodeBase);
    a.func_begin("h_a");
    a.nop();
    a.ret();
    a.func_end();
    a.func_begin("wild");
    a.st(R9, 0, R7);  // R9 is unknown at block entry
    a.ret();
    a.func_end();
    a.func_begin("main");
    a.ldi(R6, static_cast<std::int64_t>(k::kDispatchTableBase));
    a.ldi_label(R7, "h_a");
    a.st(R6, 0, R7);
    a.ldi(R6, static_cast<std::int64_t>(k::kDispatchTableBase));
    a.ld(R5, R6, 0);
    a.callr(R5);
    a.ret();
    a.func_end();
    const auto image = a.link();

    auto config = user_only_config();
    config.tables = {{k::kDispatchTableBase, k::kDispatchTableLimit}};
    const auto policy = analysis::build_policy({&image}, config);
    const auto& site = only_call_site(policy);
    ASSERT_TRUE(site.resolved);
    const std::vector<Addr> want = {image.symbol("h_a")};
    EXPECT_EQ(site.targets, want);
    // Soundness of the W^X half is not traded away: the unknown store
    // still widens the written map over the full writable space.
    EXPECT_TRUE(policy.unbounded_store);
    bool covered = false;
    for (const auto& region : policy.written)
        covered |= region.contains(k::kUserDataBase) &&
                   region.contains(k::kUserDataLimit - 1);
    EXPECT_TRUE(covered);
}

TEST(ValueSet, UnboundOperandFallsBackToTheSharedSet)
{
    // A callr through a register that never gets a derivable value: the
    // site is unresolved and the conservative fallback set still covers
    // every function entry in the group.
    isa::Assembler a(k::kUserCodeBase);
    a.func_begin("h_a");
    a.nop();
    a.ret();
    a.func_end();
    a.func_begin("main");
    a.callr(R9);  // unknown at block entry
    a.ret();
    a.func_end();
    const auto image = a.link();

    const auto policy =
        analysis::build_policy({&image}, user_only_config());
    const auto& site = only_call_site(policy);
    EXPECT_FALSE(site.resolved);
    EXPECT_TRUE(policy.fallback_contains(image.symbol("h_a")));
    EXPECT_TRUE(policy.fallback_contains(image.symbol("main")));
}

/** A policy head frame with empty tables: @p declared_sites, then the
 *  raw unbounded_store byte. */
std::vector<std::uint8_t>
policy_head(std::uint32_t declared_sites, std::uint8_t unbounded_store)
{
    std::vector<std::uint8_t> head;
    rnr::wire::Writer w(&head);
    w.u32(declared_sites);
    w.u8(unbounded_store);
    w.u32(0);  // fallback
    w.u32(0);  // code
    w.u32(0);  // written
    w.u32(0);  // jit
    return head;
}

/** A CRC-valid kPolicyTable image carrying @p frames as its payloads. */
std::vector<std::uint8_t>
policy_image(const std::vector<std::vector<std::uint8_t>>& frames)
{
    std::vector<std::uint8_t> image;
    rnr::wire::Header header;
    header.kind = rnr::wire::PayloadKind::kPolicyTable;
    header.frame_count = frames.size();
    rnr::wire::encode_header(header, &image);
    for (std::size_t i = 0; i < frames.size(); ++i)
        rnr::wire::append_frame(static_cast<std::uint32_t>(i),
                                frames[i].data(), frames[i].size(), &image);
    return image;
}

TEST(Policy, RoundTripsOnTheWire)
{
    const auto guest = k::build_kernel();
    const auto workload = workloads::generate_workload(
        workloads::benchmark_profile("mysql"));
    const auto policy =
        analysis::build_policy({&guest.image, &workload.image},
                               analysis::guest_policy_config());
    EXPECT_FALSE(policy.sites.empty());
    EXPECT_FALSE(policy.fallback.empty());
    EXPECT_FALSE(policy.code.empty());

    const auto bytes = policy.serialize();
    analysis::StaticPolicy decoded;
    const Status status =
        analysis::StaticPolicy::deserialize(bytes, &decoded);
    ASSERT_TRUE(status.ok()) << status.to_string();
    EXPECT_EQ(decoded, policy);
}

TEST(Policy, DeserializeRejectsDamagedBytes)
{
    const auto guest = k::build_kernel();
    const auto policy = analysis::build_policy(
        {&guest.image}, analysis::guest_policy_config());
    const auto bytes = policy.serialize();
    analysis::StaticPolicy decoded;

    // Empty input.
    EXPECT_FALSE(analysis::StaticPolicy::deserialize({}, &decoded).ok());

    // Truncated mid-frame.
    auto truncated = bytes;
    truncated.resize(truncated.size() - 7);
    EXPECT_FALSE(
        analysis::StaticPolicy::deserialize(truncated, &decoded).ok());

    // A flipped payload byte must fail the frame CRC.
    auto corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x40;
    EXPECT_FALSE(
        analysis::StaticPolicy::deserialize(corrupt, &decoded).ok());
}

TEST(Policy, DeserializeRejectsForeignAndLyingPayloads)
{
    analysis::StaticPolicy decoded;

    // A validly-framed payload of the wrong kind is refused up front.
    std::vector<std::uint8_t> foreign;
    rnr::wire::Header header;
    header.kind = rnr::wire::PayloadKind::kInputLog;
    header.frame_count = 0;
    rnr::wire::encode_header(header, &foreign);
    EXPECT_FALSE(
        analysis::StaticPolicy::deserialize(foreign, &decoded).ok());

    // A policy that declares more sites than it carries is truncated
    // even when every frame it does carry checks out.
    EXPECT_EQ(analysis::StaticPolicy::deserialize(
                  policy_image({policy_head(2, 0)}), &decoded)
                  .code(),
              StatusCode::kTruncated);

    // unbounded_store is a boolean: a CRC-valid 2 is malformed.
    EXPECT_EQ(analysis::StaticPolicy::deserialize(
                  policy_image({policy_head(0, 2)}), &decoded)
                  .code(),
              StatusCode::kMalformedRecord);
}

TEST(Policy, LyingCountsFailWithoutAllocating)
{
    analysis::StaticPolicy decoded;

    // A 13-byte site frame claiming 2^32-1 targets: refused before the
    // target vector is sized from the count.
    std::vector<std::uint8_t> site;
    rnr::wire::Writer w(&site);
    w.u64(0x1000);       // site pc
    w.u8(1u << 1);       // resolved
    w.u32(0xffffffffu);  // target count
    EXPECT_EQ(analysis::StaticPolicy::deserialize(
                  policy_image({policy_head(1, 0), site}), &decoded)
                  .code(),
              StatusCode::kMalformedRecord);

    // Frame 0 declaring 2^32-1 sites and shipping none: nothing is
    // reserved from the declaration, and the walk's end finds the lie.
    EXPECT_EQ(analysis::StaticPolicy::deserialize(
                  policy_image({policy_head(0xffffffffu, 0)}), &decoded)
                  .code(),
              StatusCode::kTruncated);
}

TEST(Policy, CheckedInGoldensStayByteIdentical)
{
    // The CI analyze job ships these tables as artifacts; a policy drift
    // (value-set change, wire change) must be an explicit regeneration,
    // never an accident. Regenerate with:
    //   build/tools/rsafe-analyze [--workload <name>]
    //       --emit-policy tests/corpus/policy/<name>.policy
    const auto guest = k::build_kernel();
    for (const std::string name :
         {"kernel", "apache", "fileio", "make", "mysql", "radiosity"}) {
        std::vector<const isa::Image*> images = {&guest.image};
        workloads::GeneratedWorkload workload;
        if (name != "kernel") {
            workload = workloads::generate_workload(
                workloads::benchmark_profile(name));
            images.push_back(&workload.image);
        }
        const auto bytes =
            analysis::build_policy(images,
                                   analysis::guest_policy_config())
                .serialize();

        const std::string path =
            std::string(RSAFE_CORPUS_DIR "/policy/") + name + ".policy";
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in) << "missing golden " << path;
        std::vector<std::uint8_t> golden(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        EXPECT_EQ(bytes, golden) << name << " policy drifted";
    }
}

/** A plain hypervisor that taps every indirect transfer the CPU takes. */
class IndirectTap : public hv::Hypervisor {
  public:
    explicit IndirectTap(hv::Vm* vm) : hv::Hypervisor(vm, hv::HvOptions{})
    {
        vm->cpu().vmcs().controls.trap_indirect_branch = true;
    }

    void
    on_indirect_branch(Addr pc, Addr target, bool is_call) override
    {
        (void)is_call;
        taken.emplace_back(pc, target);
    }

    std::vector<std::pair<Addr, Addr>> taken;
};

/** Every runtime transfer must be sanctioned by the static policy. */
void
expect_policy_covers_run(const analysis::StaticPolicy& policy,
                         const std::vector<std::pair<Addr, Addr>>& taken)
{
    for (const auto& [pc, target] : taken) {
        const analysis::IndirectSite* site = policy.find_site(pc);
        ASSERT_NE(site, nullptr)
            << "runtime site 0x" << std::hex << pc << " not in the policy";
        if (site->resolved) {
            EXPECT_TRUE(std::binary_search(site->targets.begin(),
                                           site->targets.end(), target))
                << "site 0x" << std::hex << pc << " took target 0x"
                << target << " outside its static set";
        } else {
            EXPECT_TRUE(policy.fallback_contains(target))
                << "unresolved site 0x" << std::hex << pc
                << " took target 0x" << target
                << " outside the fallback set";
        }
    }
}

TEST(Policy, StaticSetsCoverEveryRuntimeTargetOnTable3)
{
    // Soundness: record-side CFI hardware can only be trusted if the
    // static value sets over-approximate what benign code actually does.
    const auto guest = k::build_kernel();
    for (const auto& name :
         {"apache", "fileio", "make", "mysql", "radiosity"}) {
        auto profile = workloads::benchmark_profile(name);
        profile.iterations_per_task = 80;
        const auto workload = workloads::generate_workload(profile);
        const auto policy =
            analysis::build_policy({&guest.image, &workload.image},
                                   analysis::guest_policy_config());

        auto vm = workloads::vm_factory(profile)();
        IndirectTap tap(vm.get());
        ASSERT_EQ(tap.run(~static_cast<InstrCount>(0)),
                  hv::RunResult::kHalted)
            << name;
        expect_policy_covers_run(policy, tap.taken);
    }
}

TEST(Policy, StaticSetsCoverTheLongjmpStorm)
{
    // The storm's longjmp continuations are expressible only through the
    // fallback set; they must all be there.
    const auto scenario = workloads::longjmp_storm_scenario();
    std::vector<const isa::Image*> images;
    for (const auto& image : scenario.trusted_images)
        images.push_back(&image);
    const auto policy =
        analysis::build_policy(images, analysis::guest_policy_config());

    auto vm = scenario.factory();
    IndirectTap tap(vm.get());
    ASSERT_EQ(tap.run(~static_cast<InstrCount>(0)), hv::RunResult::kHalted);
    ASSERT_FALSE(tap.taken.empty());
    expect_policy_covers_run(policy, tap.taken);
}

}  // namespace
}  // namespace rsafe
