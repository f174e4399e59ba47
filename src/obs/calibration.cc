/**
 * @file
 * Implementation of the calibration window.
 */

#include "obs/calibration.hh"

namespace qdel {
namespace obs {

void
CalibrationWindow::record(bool hit)
{
    if (size_ < kCapacity) {
        slots_[size_++] = hit ? 1 : 0;
        hits_ += hit ? 1 : 0;
        return;
    }
    hits_ -= slots_[next_];
    slots_[next_] = hit ? 1 : 0;
    hits_ += hit ? 1 : 0;
    next_ = (next_ + 1) % kCapacity;
}

double
CalibrationWindow::coverage() const
{
    if (size_ == 0)
        return -1.0;
    return static_cast<double>(hits_) / static_cast<double>(size_);
}

void
CalibrationWindow::clear()
{
    slots_.fill(0);
    size_ = 0;
    next_ = 0;
    hits_ = 0;
}

std::vector<uint8_t>
CalibrationWindow::serialize() const
{
    std::vector<uint8_t> out;
    out.reserve(size_);
    // Oldest first: once full the cursor points at the oldest slot.
    const std::size_t start = size_ < kCapacity ? 0 : next_;
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(slots_[(start + i) % kCapacity]);
    return out;
}

void
CalibrationWindow::restore(const std::vector<uint8_t> &outcomes)
{
    clear();
    for (uint8_t outcome : outcomes)
        record(outcome != 0);
}

} // namespace obs
} // namespace qdel
