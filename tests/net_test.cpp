#include <gtest/gtest.h>

#include "bench_util.hpp"
#include "net/serializer.hpp"

namespace kspot::net {
namespace {

TEST(SerializerTest, ScalarRoundTrip) {
  Writer w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutI32(-12345);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutI64(-987654321012345LL);
  Reader r(w.bytes());
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU16(), 0xBEEF);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetI32(), -12345);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.GetI64(), -987654321012345LL);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerializerTest, LittleEndianLayout) {
  Writer w;
  w.PutU16(0x0102);
  EXPECT_EQ(w.bytes()[0], 0x02);
  EXPECT_EQ(w.bytes()[1], 0x01);
}

TEST(SerializerTest, StringRoundTrip) {
  Writer w;
  w.PutString("SELECT TOP 1");
  w.PutString("");
  Reader r(w.bytes());
  EXPECT_EQ(r.GetString(), "SELECT TOP 1");
  EXPECT_EQ(r.GetString(), "");
  EXPECT_TRUE(r.ok());
}

TEST(SerializerTest, StringLengthEdgeCases) {
  // Empty and the largest representable string round-trip exactly.
  std::string max_len(Writer::kMaxStringBytes, 'x');
  max_len[0] = 'a';
  max_len[Writer::kMaxStringBytes - 1] = 'z';
  Writer w;
  w.PutString("");
  w.PutString(max_len);
  EXPECT_EQ(w.size(), 2 + 2 + Writer::kMaxStringBytes);
  Reader r(w.bytes());
  EXPECT_EQ(r.GetString(), "");
  EXPECT_EQ(r.GetString(), max_len);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerializerTest, OversizedStringAbortsInsteadOfTruncating) {
  // 65536 bytes: one past the u16 length prefix. The old writer cast the
  // length to uint16_t (emitting a prefix of 0 followed by 64 KiB of
  // payload); now it must fail loudly.
  std::string too_long(static_cast<size_t>(Writer::kMaxStringBytes) + 1, 'y');
  EXPECT_DEATH(
      {
        Writer w;
        w.PutString(too_long);
      },
      "exceeds the u16 length prefix");
}

TEST(SerializerTest, TruncatedStringBufferSetsStickyError) {
  Writer w;
  w.PutString("hello world");
  // Chop the buffer mid-payload: the length prefix promises more bytes than
  // the frame carries.
  std::vector<uint8_t> image = w.Take();
  image.resize(image.size() - 4);
  Reader r(image);
  EXPECT_EQ(r.GetString(), "");
  EXPECT_FALSE(r.ok());
  // And chop inside the length prefix itself.
  Reader r2(image.data(), 1);
  EXPECT_EQ(r2.GetString(), "");
  EXPECT_FALSE(r2.ok());
}

TEST(SerializerTest, OverrunSetsStickyError) {
  Writer w;
  w.PutU16(7);
  Reader r(w.bytes());
  EXPECT_EQ(r.GetU32(), 0u);  // needs 4 bytes, only 2 available
  EXPECT_FALSE(r.ok());
  // Sticky: subsequent reads keep failing even if bytes would suffice.
  EXPECT_EQ(r.GetU8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(SerializerTest, HugeGetBytesLengthDoesNotOverflowTheBoundsCheck) {
  // A hostile length near SIZE_MAX used to wrap the `pos_ + n > len_`
  // comparison and pass the check — the read then ran off the buffer. The
  // overflow-safe form must just fail.
  Writer w;
  w.PutU32(42);
  Reader r(w.bytes());
  r.GetU8();  // pos_ > 0 so pos_ + SIZE_MAX wraps
  uint8_t out[1] = {0};
  EXPECT_FALSE(r.GetBytes(out, SIZE_MAX));
  EXPECT_FALSE(r.ok());
}

TEST(SerializerDeathTest, StrictModeAbortsPerGetter) {
  // Each getter at its boundary: 1 byte short of what it needs. Sticky mode
  // is the default for untrusted frames; strict mode is for trusted images
  // where truncation is a programming error and must not zero-fill.
  auto truncated = [](size_t want) {
    Writer w;
    for (size_t i = 0; i + 1 < want; ++i) w.PutU8(0);
    return w.Take();
  };
  {
    std::vector<uint8_t> buf;  // empty: even one byte overruns
    Reader r(buf.data(), 0);
    r.SetStrict(true);
    EXPECT_DEATH(r.GetU8(), "overrun");
  }
  {
    auto buf = truncated(2);
    Reader r(buf);
    r.SetStrict(true);
    EXPECT_DEATH(r.GetU16(), "overrun");
  }
  {
    auto buf = truncated(4);
    Reader r(buf);
    r.SetStrict(true);
    EXPECT_DEATH(r.GetU32(), "overrun");
  }
  {
    auto buf = truncated(8);
    Reader r(buf);
    r.SetStrict(true);
    EXPECT_DEATH(r.GetU64(), "overrun");
  }
  {
    Writer w;
    w.PutString("hello");
    auto buf = w.Take();
    buf.resize(buf.size() - 1);  // cut the payload's last byte
    Reader r(buf);
    r.SetStrict(true);
    EXPECT_DEATH(r.GetString(), "overrun");
  }
  {
    Writer w;
    w.PutU8(1);
    auto buf = w.Take();
    Reader r(buf);
    r.SetStrict(true);
    uint8_t out[2];
    EXPECT_DEATH(r.GetBytes(out, 2), "overrun");
  }
}

TEST(SerializerTest, StrictModeReadsCleanImagesNormally) {
  Writer w;
  w.PutU32(7);
  w.PutString("ok");
  Reader r(w.bytes());
  r.SetStrict(true);
  EXPECT_EQ(r.GetU32(), 7u);
  EXPECT_EQ(r.GetString(), "ok");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerializerTest, GetBytesExactAndOverrun) {
  Writer w;
  uint8_t payload[4] = {1, 2, 3, 4};
  w.PutBytes(payload, 4);
  Reader r(w.bytes());
  uint8_t out[4] = {0};
  EXPECT_TRUE(r.GetBytes(out, 4));
  EXPECT_EQ(out[3], 4);
  EXPECT_FALSE(r.GetBytes(out, 1));
}

TEST(SerializerTest, TakeMovesBuffer) {
  Writer w;
  w.PutU32(5);
  auto buf = w.Take();
  EXPECT_EQ(buf.size(), 4u);
}

TEST(SerializerTest, PositionTracksReads) {
  Writer w;
  w.PutU32(1);
  w.PutU32(2);
  Reader r(w.bytes());
  EXPECT_EQ(r.position(), 0u);
  r.GetU32();
  EXPECT_EQ(r.position(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
}

}  // namespace
}  // namespace kspot::net

namespace kspot {
namespace {

// ------------------------------------------------- Network value semantics

TEST(NetworkCopyTest, CopiesEvolveIndependently) {
  bench::Bed bed = bench::Bed::Grid(49, 8, 7);

  sim::Network copy = *bed.net;
  EXPECT_EQ(copy.total().messages, bed.net->total().messages);

  // Traffic on the original is invisible to the copy, and vice versa.
  sim::NodeId leaf = bed.tree.wave_order().front();
  ASSERT_NE(leaf, sim::kSinkId);
  uint64_t before = copy.total().messages;
  bed.net->SetPhase("copy.test");
  bed.net->UnicastToParent(leaf, 10);
  EXPECT_EQ(copy.total().messages, before);
  EXPECT_GT(bed.net->total().messages, before);

  copy.SetPhase("copy.test");
  copy.UnicastToParent(leaf, 10);
  copy.UnicastToParent(leaf, 10);
  EXPECT_EQ(copy.total().messages, before + 2);
  EXPECT_EQ(copy.MessagesSentBy(leaf), bed.net->MessagesSentBy(leaf) + 1);
}

// ------------------------------------------------------------- unicast hops

/// Both unicast directions stop retrying once the sender's battery is gone:
/// with every frame lost and 3 retries allowed, a sender whose battery
/// cannot pay for even one transmission sends exactly once.
TEST(NetworkUnicastTest, DeadSenderStopsRetryingInBothDirections) {
  sim::NetworkOptions opt;
  opt.loss_prob = 1.0;
  opt.max_retries = 3;
  opt.battery_j = 1e-9;  // below the cost of one transmission
  bench::Bed up = bench::Bed::Figure1(opt);
  ASSERT_EQ(up.tree.parent(2), sim::kSinkId);
  EXPECT_FALSE(up.net->UnicastToParent(2, 20));
  EXPECT_EQ(up.net->MessagesSentBy(2), 1u);
  EXPECT_EQ(up.net->total().messages, 1u);
  EXPECT_FALSE(up.net->NodeAlive(2));

  bench::Bed down = bench::Bed::Figure1(opt);
  EXPECT_FALSE(down.net->UnicastDownPath(2, 20));
  EXPECT_EQ(down.net->MessagesSentBy(sim::kSinkId), 1u);
  EXPECT_EQ(down.net->total().messages, 1u);
  EXPECT_FALSE(down.net->NodeAlive(sim::kSinkId));
}

}  // namespace
}  // namespace kspot
