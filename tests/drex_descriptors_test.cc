/**
 * @file
 * Tests for the §7.3.1 wire formats: request-descriptor round trips,
 * BF16 rounding behaviour, size accounting, and response-descriptor
 * capacity math.
 */

#include <gtest/gtest.h>

#include "drex/descriptors.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

RequestDescriptor
sampleDescriptor(Rng &rng)
{
    RequestDescriptor d;
    d.uid = 42;
    d.layer = 17;
    d.k = 512;
    d.numQueryHeads = 4;
    d.headDim = 64;
    d.thresholds = {10, 20, 30, 40, 50, 60, 70, 80};
    d.queries = Matrix(4, 64, rng.gaussianVec(4 * 64));
    // Pre-round to BF16 so serialization is lossless for the test.
    for (size_t i = 0; i < d.queries.size(); ++i)
        d.queries.data()[i] = toBf16(d.queries.data()[i]);
    return d;
}

TEST(Descriptors, RoundTrip)
{
    Rng rng(1);
    const RequestDescriptor d = sampleDescriptor(rng);
    const auto bytes = d.serialize();
    const RequestDescriptor back = RequestDescriptor::deserialize(bytes);
    EXPECT_EQ(back, d);
}

TEST(Descriptors, ByteSizeMatchesSerialization)
{
    Rng rng(2);
    const RequestDescriptor d = sampleDescriptor(rng);
    EXPECT_EQ(d.serialize().size(), d.byteSize());
    // Header (5 u32) + 8 thresholds + 4x64 BF16 queries.
    EXPECT_EQ(d.byteSize(), 20u + 32u + 512u);
}

TEST(Descriptors, Bf16RoundingIsIdempotent)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const float v = static_cast<float>(rng.gaussian(0.0, 10.0));
        const float r = toBf16(v);
        EXPECT_EQ(toBf16(r), r);
        // BF16 keeps ~3 significant decimal digits.
        if (v != 0.0f) {
            EXPECT_NEAR(r / v, 1.0, 0.01);
        }
    }
}

TEST(Descriptors, QueriesSurviveAsBf16)
{
    Rng rng(4);
    RequestDescriptor d = sampleDescriptor(rng);
    // Write full-precision values; the wire format rounds them.
    d.queries(0, 0) = 1.23456789f;
    const auto back = RequestDescriptor::deserialize(d.serialize());
    EXPECT_EQ(back.queries(0, 0), toBf16(1.23456789f));
}

TEST(Descriptors, TruncatedInputDies)
{
    Rng rng(5);
    auto bytes = sampleDescriptor(rng).serialize();
    bytes.resize(bytes.size() - 3);
    EXPECT_DEATH(
        { RequestDescriptor::deserialize(bytes); }, "descriptor");
}

TEST(Descriptors, ResponseLayoutMatchesPaperScale)
{
    // §7.3.1: "a list of 1,024 x H top Keys and Values".
    ResponseDescriptorLayout r;
    r.k = 1024;
    r.numKvHeads = 8;
    r.headDim = 128;
    EXPECT_EQ(r.entryBytes(), 4u + 4u + 256u);
    EXPECT_EQ(r.maxBytes(), 264ULL * 1024 * 8);
    // Must fit a plausible response buffer (a few MiB).
    EXPECT_LT(r.maxBytes(), 4ULL * 1024 * 1024);
}

TEST(Descriptors, EmptyThresholdsAllowed)
{
    RequestDescriptor d;
    d.numQueryHeads = 1;
    d.headDim = 8;
    d.queries = Matrix(1, 8);
    const auto back = RequestDescriptor::deserialize(d.serialize());
    EXPECT_TRUE(back.thresholds.empty());
    EXPECT_EQ(back.headDim, 8u);
}

} // namespace
} // namespace longsight
