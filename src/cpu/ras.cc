#include "cpu/ras.h"

#include "common/log.h"

namespace rsafe::cpu {

Ras::Ras(std::size_t depth)
{
    if (depth == 0)
        fatal("Ras: depth must be positive");
    ring_.resize(depth);
}

SavedRas
Ras::save_and_clear()
{
    SavedRas saved = peek();
    clear();
    return saved;
}

SavedRas
Ras::peek() const
{
    SavedRas saved;
    saved.entries.reserve(size_);
    // The bottom entry sits size_ slots below the top.
    std::size_t slot = (top_ + ring_.size() - size_) % ring_.size();
    for (std::size_t i = 0; i < size_; ++i) {
        saved.entries.push_back(ring_[slot]);
        slot = slot + 1 == ring_.size() ? 0 : slot + 1;
    }
    return saved;
}

void
Ras::load(const SavedRas& saved)
{
    // Replaying the pushes keeps the newest depth() entries, bottom first.
    clear();
    for (const auto& entry : saved.entries) {
        push(entry.addr);
        ring_[top_slot()].restored = true;
    }
}

}  // namespace rsafe::cpu
