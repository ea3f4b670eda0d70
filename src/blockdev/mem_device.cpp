#include "blockdev/mem_device.hpp"

#include <sys/mman.h>

#include <cstring>

#include "common/check.hpp"

namespace kdd {

MemBlockDevice::MemBlockDevice(std::uint64_t pages)
    : pages_(pages), data_(map_zeroed(pages * kPageSize)) {}

void MemBlockDevice::Unmap::operator()(std::uint8_t* p) const { ::munmap(p, bytes); }

MemBlockDevice::Media MemBlockDevice::map_zeroed(std::size_t bytes) {
  KDD_CHECK(bytes > 0);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
  KDD_CHECK(p != MAP_FAILED);
  return Media(static_cast<std::uint8_t*>(p), Unmap{bytes});
}

IoStatus MemBlockDevice::read(Lba page, std::span<std::uint8_t> out) {
  KDD_CHECK(page < pages_);
  KDD_CHECK(out.size() == kPageSize);
  if (failed_) return IoStatus::kFailed;
  ++counters_.reads;
  std::memcpy(out.data(), data_.get() + page * kPageSize, kPageSize);
  return IoStatus::kOk;
}

IoStatus MemBlockDevice::write(Lba page, std::span<const std::uint8_t> data) {
  KDD_CHECK(page < pages_);
  KDD_CHECK(data.size() == kPageSize);
  if (failed_) return IoStatus::kFailed;
  ++counters_.writes;
  std::memcpy(data_.get() + page * kPageSize, data.data(), kPageSize);
  return IoStatus::kOk;
}

IoStatus MemBlockDevice::write_multi(std::span<const PageWrite> batch,
                                     std::size_t* pages_done) {
  // One bounds/failure check up front, then a straight memcpy loop — the
  // memory device's equivalent of a single multi-page DMA.
  for (const PageWrite& w : batch) {
    KDD_CHECK(w.page < pages_);
    KDD_CHECK(w.data.size() == kPageSize);
  }
  if (failed_) {
    if (pages_done) *pages_done = 0;
    return IoStatus::kFailed;
  }
  for (const PageWrite& w : batch) {
    ++counters_.writes;
    std::memcpy(data_.get() + w.page * kPageSize, w.data.data(), kPageSize);
  }
  if (pages_done) *pages_done = batch.size();
  return IoStatus::kOk;
}

void MemBlockDevice::replace() {
  data_ = map_zeroed(pages_ * kPageSize);  // drops the old pages
  failed_ = false;
}

std::span<const std::uint8_t> MemBlockDevice::raw_page(Lba page) const {
  KDD_CHECK(page < pages_);
  return {data_.get() + page * kPageSize, kPageSize};
}

void MemBlockDevice::corrupt_page(Lba page, std::uint8_t xor_mask) {
  KDD_CHECK(page < pages_);
  std::uint8_t* p = data_.get() + page * kPageSize;
  for (std::uint32_t i = 0; i < kPageSize; ++i) p[i] ^= xor_mask;
}

}  // namespace kdd
