/**
 * @file
 * Unit tests for the common module: Result/Status, GUIDs, byte
 * serialization, statistics, strings, and the deterministic RNG.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "common/guid.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/result.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strings.hh"

namespace hydra {
namespace {

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue)
{
    Result<int> r = 42;
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(r.code(), ErrorCode::Ok);
}

TEST(ResultTest, HoldsError)
{
    Result<int> r = Error(ErrorCode::NotFound, "gone");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::NotFound);
    EXPECT_EQ(r.error().message, "gone");
    EXPECT_EQ(r.error().describe(), "NotFound: gone");
}

TEST(ResultTest, ValueOrFallsBack)
{
    Result<int> bad = Error(ErrorCode::Internal);
    EXPECT_EQ(bad.valueOr(7), 7);
    Result<int> good = 3;
    EXPECT_EQ(good.valueOr(7), 3);
}

TEST(ResultTest, ImplicitErrorCodeConstruction)
{
    Result<std::string> r = ErrorCode::ParseError;
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::ParseError);
}

TEST(StatusTest, DefaultIsSuccess)
{
    Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::Ok);
}

TEST(StatusTest, CarriesError)
{
    Status s(ErrorCode::ChannelFull, "ring exhausted");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::ChannelFull);
    EXPECT_EQ(s.error().message, "ring exhausted");
}

TEST(ErrorNameTest, EveryCodeHasAName)
{
    EXPECT_EQ(errorName(ErrorCode::Ok), "Ok");
    EXPECT_EQ(errorName(ErrorCode::NoFeasibleLayout), "NoFeasibleLayout");
    EXPECT_EQ(errorName(ErrorCode::SolverLimitReached),
              "SolverLimitReached");
}

// ---------------------------------------------------------------- Guid

TEST(GuidTest, FromNameIsDeterministic)
{
    const Guid a = Guid::fromName("tivo.Decoder");
    const Guid b = Guid::fromName("tivo.Decoder");
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.isNull());
}

TEST(GuidTest, DistinctNamesDistinctGuids)
{
    EXPECT_NE(Guid::fromName("a"), Guid::fromName("b"));
    EXPECT_NE(Guid::fromName("tivo.File"), Guid::fromName("tivo.Gui"));
}

TEST(GuidTest, ParseDecimal)
{
    Guid g;
    ASSERT_TRUE(Guid::parse("7070714", g));
    EXPECT_EQ(g.value(), 7070714u);
}

TEST(GuidTest, ParseHex)
{
    Guid g;
    ASSERT_TRUE(Guid::parse("0xABCDEF", g));
    EXPECT_EQ(g.value(), 0xabcdefu);
}

TEST(GuidTest, ParseRejectsGarbage)
{
    Guid g;
    EXPECT_FALSE(Guid::parse("", g));
    EXPECT_FALSE(Guid::parse("12x4", g));
    EXPECT_FALSE(Guid::parse("hello", g));
}

TEST(GuidTest, RoundTripsThroughString)
{
    const Guid g(0x1234abcd5678ef00ull);
    Guid parsed;
    ASSERT_TRUE(Guid::parse(g.toString(), parsed));
    EXPECT_EQ(parsed, g);
}

// ---------------------------------------------------------------- Bytes

TEST(BytesTest, PrimitiveRoundTrip)
{
    Bytes buffer;
    ByteWriter writer(buffer);
    writer.writeU8(0xab);
    writer.writeU16(0x1234);
    writer.writeU32(0xdeadbeef);
    writer.writeU64(0x0102030405060708ull);
    writer.writeI64(-42);
    writer.writeF64(3.14159);
    writer.writeString("hello");
    writer.writeBytes(Bytes{1, 2, 3});

    ByteReader reader(buffer);
    EXPECT_EQ(reader.readU8().value(), 0xab);
    EXPECT_EQ(reader.readU16().value(), 0x1234);
    EXPECT_EQ(reader.readU32().value(), 0xdeadbeefu);
    EXPECT_EQ(reader.readU64().value(), 0x0102030405060708ull);
    EXPECT_EQ(reader.readI64().value(), -42);
    EXPECT_DOUBLE_EQ(reader.readF64().value(), 3.14159);
    EXPECT_EQ(reader.readString().value(), "hello");
    EXPECT_EQ(reader.readBytes().value(), (Bytes{1, 2, 3}));
    EXPECT_TRUE(reader.exhausted());
}

TEST(BytesTest, UnderrunFails)
{
    Bytes buffer{1, 2};
    ByteReader reader(buffer);
    EXPECT_TRUE(reader.readU16().ok());
    EXPECT_FALSE(reader.readU32().ok());
}

TEST(BytesTest, TruncatedStringFails)
{
    Bytes buffer;
    ByteWriter writer(buffer);
    writer.writeU32(100); // claims 100 bytes follow; none do
    ByteReader reader(buffer);
    EXPECT_FALSE(reader.readString().ok());
}

TEST(BytesTest, Crc32KnownVector)
{
    const char *text = "123456789";
    const std::uint32_t crc = crc32(
        reinterpret_cast<const std::uint8_t *>(text), 9);
    EXPECT_EQ(crc, 0xcbf43926u); // standard check value
}

TEST(BytesTest, Crc32DetectsCorruption)
{
    Bytes data(100, 7);
    const std::uint32_t clean = crc32(data);
    data[50] ^= 1;
    EXPECT_NE(crc32(data), clean);
}

// ---------------------------------------------------------------- Stats

TEST(StatsTest, SummaryStatistics)
{
    SampleSet s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.01);
    EXPECT_DOUBLE_EQ(s.median(), 4.5);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, SingleSample)
{
    SampleSet s;
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.median(), 3.5);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(StatsTest, PercentileInterpolates)
{
    SampleSet s;
    for (int i = 0; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(95), 95.0, 1e-9);
}

TEST(StatsTest, EmptySampleSetIsSafe)
{
    // Regression: these used to be assert-only guards, i.e. undefined
    // behavior on empty sets in release builds.
    SampleSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.median(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(99.0), 0.0);
}

TEST(StatsTest, PercentileClampsOutOfRange)
{
    SampleSet s;
    s.add(1.0);
    s.add(2.0);
    EXPECT_DOUBLE_EQ(s.percentile(-5.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(250.0), 2.0);
}

TEST(StatsTest, EmptyHistogramRendersAndNormalizes)
{
    Histogram h(0.0, 10.0, 4);
    EXPECT_EQ(h.totalCount(), 0u);
    const auto norm = h.normalized();
    ASSERT_EQ(norm.size(), 4u);
    for (double v : norm)
        EXPECT_DOUBLE_EQ(v, 0.0);
    const std::string art = h.render(20);
    EXPECT_FALSE(art.empty());
    EXPECT_EQ(art.find('#'), std::string::npos); // no bars drawn
}

TEST(StatsTest, DegenerateHistogramRangeIsSafe)
{
    // min == max happens whenever a bench histograms a constant
    // series; it must not divide by zero. The range widens to unit
    // width and out-of-range samples clamp as usual.
    Histogram h(5.0, 5.0, 10);
    h.add(5.0);
    h.add(4.0);
    h.add(6.0);
    EXPECT_EQ(h.totalCount(), 3u);
    EXPECT_EQ(h.bins().front().count, 2u); // 5.0 and the clamped 4.0
    EXPECT_EQ(h.bins().back().count, 1u);  // the clamped 6.0

    Histogram zero_bins(0.0, 1.0, 0);
    zero_bins.add(0.5);
    EXPECT_EQ(zero_bins.bins().size(), 1u);
    EXPECT_EQ(zero_bins.totalCount(), 1u);
}

TEST(StatsTest, HistogramBinsAndClamps)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(5.5);
    h.add(5.6);
    h.add(-3.0); // clamps into first bin
    h.add(99.0); // clamps into last bin
    EXPECT_EQ(h.totalCount(), 5u);
    EXPECT_EQ(h.bins()[0].count, 2u);
    EXPECT_EQ(h.bins()[5].count, 2u);
    EXPECT_EQ(h.bins()[9].count, 1u);

    const auto norm = h.normalized();
    EXPECT_DOUBLE_EQ(norm[0], 0.4);
}

TEST(StatsTest, EmpiricalCdfMonotonicEndsAtOne)
{
    SampleSet s;
    for (double v : {1.0, 1.0, 2.0, 3.0, 3.0, 3.0})
        s.add(v);
    const auto cdf = empiricalCdf(s);
    ASSERT_EQ(cdf.size(), 3u);
    EXPECT_DOUBLE_EQ(cdf[0].probability, 2.0 / 6.0);
    EXPECT_DOUBLE_EQ(cdf[1].probability, 3.0 / 6.0);
    EXPECT_DOUBLE_EQ(cdf.back().probability, 1.0);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GT(cdf[i].value, cdf[i - 1].value);
        EXPECT_GT(cdf[i].probability, cdf[i - 1].probability);
    }
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(2.0, 5.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(RngTest, UniformIntInclusiveBounds)
{
    Rng rng(9);
    bool sawLow = false, sawHigh = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        sawLow |= v == 0;
        sawHigh |= v == 3;
    }
    EXPECT_TRUE(sawLow);
    EXPECT_TRUE(sawHigh);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect)
{
    Rng rng(11);
    SampleSet s;
    for (int i = 0; i < 20000; ++i)
        s.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect)
{
    Rng rng(13);
    SampleSet s;
    for (int i = 0; i < 20000; ++i)
        s.add(rng.exponential(4.0));
    EXPECT_NEAR(s.mean(), 4.0, 0.2);
    EXPECT_GE(s.min(), 0.0);
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, Trim)
{
    EXPECT_EQ(trim("  abc \t\n"), "abc");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, PrefixSuffix)
{
    EXPECT_TRUE(startsWith("hydra.Runtime", "hydra."));
    EXPECT_FALSE(startsWith("hy", "hydra"));
    EXPECT_TRUE(endsWith("file.odf", ".odf"));
    EXPECT_FALSE(endsWith("odf", ".odf"));
}

TEST(StringsTest, ParseNumbers)
{
    long long i = 0;
    EXPECT_TRUE(parseInt(" 42 ", i));
    EXPECT_EQ(i, 42);
    EXPECT_TRUE(parseInt("-7", i));
    EXPECT_EQ(i, -7);
    EXPECT_FALSE(parseInt("4x", i));
    EXPECT_FALSE(parseInt("", i));

    double d = 0.0;
    EXPECT_TRUE(parseDouble("3.5", d));
    EXPECT_DOUBLE_EQ(d, 3.5);
    EXPECT_FALSE(parseDouble("3.5z", d));
}

TEST(StringsTest, ParseU64IsStrict)
{
    std::uint64_t v = 7;
    EXPECT_TRUE(parseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("18446744073709551615", v));
    EXPECT_EQ(v, 18446744073709551615ull);
    for (const char *bad : {"", "-5", "+5", " 5", "5 ", "1.5", "5x", "abc",
                            "18446744073709551616",
                            "99999999999999999999"}) {
        v = 7;
        EXPECT_FALSE(parseU64(bad, v)) << "accepted '" << bad << "'";
        EXPECT_EQ(v, 7u) << "clobbered by '" << bad << "'";
    }
    EXPECT_FALSE(parseU64("0", v, 1));
    EXPECT_TRUE(parseU64("1", v, 1));
    EXPECT_TRUE(parseU64("10", v, 1, 10));
    EXPECT_FALSE(parseU64("11", v, 1, 10));
}

TEST(StringsTest, ToLower)
{
    EXPECT_EQ(toLower("AsymmetricGANG"), "asymmetricgang");
}

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, SinkCapturesAtOrAboveLevel)
{
    std::vector<std::string> captured;
    Log::setSink([&](LogLevel, const std::string &msg) {
        captured.push_back(msg);
    });
    const LogLevel old = Log::level();
    Log::setLevel(LogLevel::Warn);

    LOG_DEBUG << "invisible";
    LOG_WARN << "visible " << 42;

    Log::setLevel(old);
    Log::setSink(nullptr);

    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0], "visible 42");
}

// ------------------------------------------------------------------ JSON

TEST(JsonTest, ParsesScalarsAndEscapes)
{
    auto doc = json::parse(
        "{\"s\":\"a\\n\\\"b\\u0041\",\"n\":42,\"neg\":-1.5,"
        "\"t\":true,\"f\":false,\"z\":null}");
    ASSERT_TRUE(doc.ok()) << doc.error().describe();
    ASSERT_TRUE(doc.value().isObject());
    EXPECT_EQ(doc.value().find("s")->string, "a\n\"bA");
    EXPECT_EQ(doc.value().find("n")->asU64(), 42u);
    EXPECT_DOUBLE_EQ(doc.value().find("neg")->number, -1.5);
    EXPECT_TRUE(doc.value().find("t")->boolean);
    EXPECT_FALSE(doc.value().find("f")->boolean);
    EXPECT_TRUE(doc.value().find("z")->isNull());
}

TEST(JsonTest, ParsesNestedArraysAndObjects)
{
    auto doc = json::parse("[{\"a\":[1,2,3]},{\"a\":[]}]");
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(doc.value().isArray());
    ASSERT_EQ(doc.value().array.size(), 2u);
    const json::Value *inner = doc.value().array[0].find("a");
    ASSERT_NE(inner, nullptr);
    ASSERT_EQ(inner->array.size(), 3u);
    EXPECT_EQ(inner->array[2].asU64(), 3u);
    EXPECT_TRUE(doc.value().array[1].find("a")->array.empty());
}

TEST(JsonTest, FindOnNonObjectIsNull)
{
    auto doc = json::parse("[1]");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value().find("anything"), nullptr);
    EXPECT_EQ(doc.value().array[0].asU64(), 1u);
    EXPECT_EQ(doc.value().asU64(), 0u); // not a number
}

TEST(JsonTest, RejectsMalformedDocuments)
{
    EXPECT_FALSE(json::parse("").ok());
    EXPECT_FALSE(json::parse("{").ok());
    EXPECT_FALSE(json::parse("{\"a\":}").ok());
    EXPECT_FALSE(json::parse("[1,]").ok());
    EXPECT_FALSE(json::parse("\"unterminated").ok());
    EXPECT_FALSE(json::parse("{} trailing").ok());
    EXPECT_FALSE(json::parse("nul").ok());
}

TEST(SparklineTest, DegenerateSeriesStaySane)
{
    // hydra_top feeds whatever a flight recording holds — including
    // zero- and one-snapshot recordings — straight into sparkline().
    EXPECT_EQ(sparkline({}), "");
    EXPECT_EQ(sparkline({5.0}), "█");
    EXPECT_EQ(sparkline({0.0}), "▁");
    EXPECT_EQ(sparkline({0.0, 0.0, 0.0}), "▁▁▁");
}

TEST(SparklineTest, ScalesAgainstOwnMax)
{
    // 3.5/7 scales to level round(3.5 + 0.5) = 4 of 7.
    const std::string line = sparkline({0.0, 3.5, 7.0});
    EXPECT_EQ(line, "▁▅█");
}

TEST(SparklineTest, ClampsNegativeAndNonFinite)
{
    // Counter deltas can never be negative, but gauge series can be;
    // both must render at the baseline rather than index off the
    // glyph table.
    EXPECT_EQ(sparkline({-4.0, 2.0}), "▁█");
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(sparkline({nan, 1.0}), "▁█");
    EXPECT_EQ(sparkline({-inf, 1.0}), "▁█");
    // +inf clamps to zero too (non-finite), leaving the finite
    // samples to set the scale.
    EXPECT_EQ(sparkline({inf, 2.0}), "▁█");
}

} // namespace
} // namespace hydra
