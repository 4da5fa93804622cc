#include "analysis/policy.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "kernel/layout.h"
#include "rnr/wire.h"

namespace rsafe::analysis {

namespace {

using rnr::wire::PayloadKind;

void
put_addrs(rnr::wire::Writer& w, const std::vector<Addr>& addrs)
{
    w.u32(static_cast<std::uint32_t>(addrs.size()));
    for (Addr addr : addrs)
        w.u64(addr);
}

void
put_regions(rnr::wire::Writer& w, const std::vector<Region>& regions)
{
    w.u32(static_cast<std::uint32_t>(regions.size()));
    for (const Region& r : regions) {
        w.u64(r.begin);
        w.u64(r.end);
    }
}

void
get_addrs(rnr::wire::Reader& in, std::vector<Addr>* out)
{
    out->resize(in.count(8));
    for (Addr& addr : *out)
        addr = in.u64();
}

void
get_regions(rnr::wire::Reader& in, std::vector<Region>* out)
{
    out->resize(in.count(16));
    for (std::size_t i = 0; i < out->size(); ++i) {
        Region& r = (*out)[i];
        r.begin = in.u64();
        r.end = in.u64();
        if (r.end < r.begin) {
            in.fail(StatusCode::kMalformedRecord,
                    strcat_args("policy region ", i, " has inverted bounds"));
        }
    }
}

constexpr std::uint8_t kFlagIsCall = 1u << 0;
constexpr std::uint8_t kFlagResolved = 1u << 1;

std::string
hex(std::uint64_t value)
{
    std::ostringstream os;
    os << "0x" << std::hex << value;
    return os.str();
}

}  // namespace

const IndirectSite*
StaticPolicy::find_site(Addr pc) const
{
    auto it = std::lower_bound(sites.begin(), sites.end(), pc,
                               [](const IndirectSite& s, Addr addr) {
                                   return s.site < addr;
                               });
    if (it == sites.end() || it->site != pc)
        return nullptr;
    return &*it;
}

bool
StaticPolicy::fallback_contains(Addr target) const
{
    return std::binary_search(fallback.begin(), fallback.end(), target);
}

const Region*
StaticPolicy::jit_region_of(Addr addr) const
{
    for (const Region& r : jit) {
        if (r.contains(addr))
            return &r;
    }
    return nullptr;
}

std::vector<std::uint8_t>
StaticPolicy::serialize() const
{
    // Frame 0 carries the counts and the set/region tables; frames 1..N
    // carry one CFI site each, so a damaged site frame loses only that
    // site's policy.
    std::vector<std::uint8_t> head;
    rnr::wire::Writer w(&head);
    w.u32(static_cast<std::uint32_t>(sites.size()));
    w.flag(unbounded_store);
    put_addrs(w, fallback);
    put_regions(w, code);
    put_regions(w, written);
    put_regions(w, jit);

    std::vector<std::uint8_t> out;
    rnr::wire::Header header;
    header.kind = PayloadKind::kPolicyTable;
    header.frame_count = 1 + sites.size();
    rnr::wire::encode_header(header, &out);
    rnr::wire::append_frame(0, head.data(), head.size(), &out);
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const IndirectSite& site = sites[i];
        std::vector<std::uint8_t> frame;
        rnr::wire::Writer fw(&frame);
        fw.u64(site.site);
        fw.u8((site.is_call ? kFlagIsCall : 0) |
              (site.resolved ? kFlagResolved : 0));
        put_addrs(fw, site.targets);
        rnr::wire::append_frame(static_cast<std::uint32_t>(i + 1),
                                frame.data(), frame.size(), &out);
    }
    return out;
}

Status
StaticPolicy::deserialize(const std::vector<std::uint8_t>& bytes,
                          StaticPolicy* out)
{
    *out = StaticPolicy();
    std::uint32_t declared_sites = 0;
    Addr last_site = 0;
    const auto report = rnr::wire::read_frames(
        bytes, PayloadKind::kPolicyTable,
        [&](std::uint64_t seq, rnr::wire::Reader& frame) -> Status {
            if (seq == 0) {
                declared_sites = frame.u32();
                out->unbounded_store = frame.flag();
                get_addrs(frame, &out->fallback);
                get_regions(frame, &out->code);
                get_regions(frame, &out->written);
                get_regions(frame, &out->jit);
                if (!std::is_sorted(out->fallback.begin(),
                                    out->fallback.end())) {
                    frame.fail(StatusCode::kMalformedRecord,
                               "policy fallback set is not sorted");
                }
                return frame.status();
            }
            IndirectSite site;
            site.site = frame.u64();
            const std::uint8_t flags = frame.u8();
            if ((flags & ~(kFlagIsCall | kFlagResolved)) != 0) {
                return frame.fail(StatusCode::kMalformedRecord,
                                  strcat_args("policy site frame ", seq,
                                              ": bad flags ",
                                              static_cast<unsigned>(flags)));
            }
            site.is_call = (flags & kFlagIsCall) != 0;
            site.resolved = (flags & kFlagResolved) != 0;
            get_addrs(frame, &site.targets);
            if (!frame.ok())
                return frame.status();
            if (!site.resolved && !site.targets.empty()) {
                return Status(StatusCode::kMalformedRecord,
                              strcat_args("policy site frame ", seq,
                                          ": unresolved site carries "
                                          "targets"));
            }
            if (!std::is_sorted(site.targets.begin(), site.targets.end())) {
                return Status(StatusCode::kMalformedRecord,
                              strcat_args("policy site frame ", seq,
                                          ": target set not sorted"));
            }
            if (!out->sites.empty() && site.site <= last_site) {
                return Status(StatusCode::kMalformedRecord,
                              strcat_args("policy site frame ", seq,
                                          ": sites out of order"));
            }
            last_site = site.site;
            out->sites.push_back(std::move(site));
            return Status();
        });
    if (!report.status.ok())
        return report.status;
    if (out->sites.size() != declared_sites) {
        return Status(StatusCode::kTruncated,
                      strcat_args("policy declares ", declared_sites,
                                  " sites but carries ",
                                  out->sites.size()));
    }
    return Status();
}

std::string
StaticPolicy::to_string() const
{
    std::ostringstream os;
    std::size_t resolved = 0;
    for (const IndirectSite& site : sites)
        resolved += site.resolved ? 1 : 0;
    os << "static policy: " << sites.size() << " indirect sites ("
       << resolved << " resolved), fallback set " << fallback.size()
       << " targets" << (unbounded_store ? ", unbounded stores" : "")
       << "\n";
    for (const IndirectSite& site : sites) {
        os << "  " << (site.is_call ? "callr" : "jmpr ") << " @ "
           << hex(site.site);
        if (site.resolved) {
            os << " -> {";
            for (std::size_t i = 0; i < site.targets.size(); ++i)
                os << (i != 0 ? ", " : "") << hex(site.targets[i]);
            os << "}";
        } else {
            os << " -> fallback";
        }
        os << "\n";
    }
    const auto render = [&os](const char* name,
                              const std::vector<Region>& regions) {
        os << "  " << name << ":";
        for (const Region& r : regions)
            os << " [" << hex(r.begin) << ", " << hex(r.end) << ")";
        os << "\n";
    };
    render("code", code);
    render("written", written);
    render("jit", jit);
    return os.str();
}

PolicyConfig
guest_policy_config()
{
    namespace k = rsafe::kernel;
    PolicyConfig config;
    config.memory.executable = {{k::kKernelCodeBase, k::kKernelCodeLimit},
                                {k::kUserCodeBase, k::kUserCodeLimit}};
    config.memory.writable = {
        {k::kIvtBase, k::kKernelCodeBase},
        {k::kKernelDataBase, k::kKernelDataLimit},
        {k::kTaskStackBase,
         k::kTaskStackBase + k::kMaxTasks * k::kTaskStackSize},
        // The JIT tail is writable by design (runtime code generation).
        {k::kJitRegionBase, k::kJitRegionLimit},
        {k::kUserDataBase, k::kUserDataLimit},
        {k::kWorkingSetBase, k::kWorkingSetLimit},
    };
    config.stacks = {{k::kTaskStackBase,
                      k::kTaskStackBase + k::kMaxTasks * k::kTaskStackSize}};
    config.jit = {{k::kJitRegionBase, k::kJitRegionLimit}};
    config.tables = {{k::kDispatchTableBase, k::kDispatchTableLimit}};
    return config;
}

StaticPolicy
build_policy(const std::vector<const isa::Image*>& images,
             const PolicyConfig& config)
{
    std::vector<DecodedImage> decoded;
    decoded.reserve(images.size());
    for (const isa::Image* image : images) {
        if (image == nullptr)
            fatal("build_policy: null image");
        decoded.emplace_back(*image);
    }
    std::vector<Cfg> cfgs;
    cfgs.reserve(decoded.size());
    for (const DecodedImage& d : decoded)
        cfgs.emplace_back(d);
    std::vector<const Cfg*> cfg_ptrs;
    cfg_ptrs.reserve(cfgs.size());
    for (const Cfg& cfg : cfgs)
        cfg_ptrs.push_back(&cfg);

    ValueSetConfig vs_config;
    vs_config.memory = config.memory;
    vs_config.stacks = config.stacks;
    vs_config.tables = config.tables;
    ValueSetResult vs = analyze_value_sets(cfg_ptrs, vs_config);

    StaticPolicy policy;
    policy.sites = std::move(vs.sites);
    policy.fallback = std::move(vs.fallback);
    policy.written = std::move(vs.written);
    policy.unbounded_store = vs.unbounded_store;
    policy.jit = config.jit;

    std::vector<Region> code;
    for (const isa::Image* image : images) {
        if (image->size() == 0)
            continue;
        code.push_back(Region{page_base(image->base()),
                              page_base(image->end() - 1) + kPageSize});
    }
    std::sort(code.begin(), code.end(),
              [](const Region& a, const Region& b) {
                  return a.begin != b.begin ? a.begin < b.begin
                                            : a.end < b.end;
              });
    for (const Region& r : code) {
        if (!policy.code.empty() && r.begin <= policy.code.back().end)
            policy.code.back().end = std::max(policy.code.back().end, r.end);
        else
            policy.code.push_back(r);
    }
    return policy;
}

}  // namespace rsafe::analysis
