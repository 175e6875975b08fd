// sim::ZeroPages: fresh memory reads zero and is writable, a zero-byte
// request still yields a distinct non-null address, a size that cannot be
// page-rounded is refused, and moves hand the one mapping over without
// copying or unmapping it.
#include "sim/zero_pages.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <system_error>
#include <utility>

namespace gdrshmem::sim {
namespace {

TEST(ZeroPages, ReadsZeroAndIsWritable) {
  ZeroPages z(3 * 4096 + 17);
  ASSERT_NE(z.data(), nullptr);
  EXPECT_EQ(z.size(), 3u * 4096 + 17);
  EXPECT_TRUE(std::all_of(z.data(), z.data() + z.size(),
                          [](std::byte b) { return b == std::byte{0}; }));
  z.data()[z.size() - 1] = std::byte{0x5a};
  EXPECT_EQ(z.data()[z.size() - 1], std::byte{0x5a});
}

TEST(ZeroPages, ZeroByteRequestGivesDistinctAddresses) {
  ZeroPages a(0), b(0);
  EXPECT_EQ(a.size(), 0u);
  ASSERT_NE(a.data(), nullptr);
  EXPECT_NE(a.data(), b.data());
}

TEST(ZeroPages, UnroundableSizeIsRefused) {
  EXPECT_THROW(ZeroPages(std::numeric_limits<std::size_t>::max()),
               std::system_error);
}

TEST(ZeroPages, MoveHandsOverTheMapping) {
  ZeroPages a(4096);
  a.data()[0] = std::byte{7};
  std::byte* const p = a.data();
  ZeroPages b(std::move(a));
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b.data(), p);
  ZeroPages c(64);
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c.size(), 4096u);
  EXPECT_EQ(c.data()[0], std::byte{7});
}

}  // namespace
}  // namespace gdrshmem::sim
