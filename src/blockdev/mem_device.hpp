// Memory-backed block device with failure injection. Models an HDD's data
// plane for the user-space RAID prototype; the HDD *timing* model lives in
// hdd_model.hpp.
#pragma once

#include <cstdint>
#include <memory>

#include "blockdev/block_device.hpp"

namespace kdd {

class MemBlockDevice final : public BlockDevice {
 public:
  explicit MemBlockDevice(std::uint64_t pages);

  IoStatus read(Lba page, std::span<std::uint8_t> out) override;
  IoStatus write(Lba page, std::span<const std::uint8_t> data) override;
  IoStatus write_multi(std::span<const PageWrite> batch,
                       std::size_t* pages_done = nullptr) override;
  std::uint64_t num_pages() const override { return pages_; }

  /// Replaces the device with a blank one (models swapping in a spare disk):
  /// every page reads as zeros again.
  void replace();

  /// Direct access for tests/scrubbing (bypasses failure state and counters).
  std::span<const std::uint8_t> raw_page(Lba page) const;
  void corrupt_page(Lba page, std::uint8_t xor_mask);

 private:
  /// The media is an anonymous mapping, which the OS zero-fills on first
  /// touch: pages that are never written are never resident.
  struct Unmap {
    std::size_t bytes = 0;
    void operator()(std::uint8_t* p) const;
  };
  using Media = std::unique_ptr<std::uint8_t[], Unmap>;
  static Media map_zeroed(std::size_t bytes);

  std::uint64_t pages_;
  Media data_;
};

}  // namespace kdd
