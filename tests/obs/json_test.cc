#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.h"

namespace gupt {
namespace obs {
namespace {

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("C:\\tmp"), "C:\\\\tmp");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(JsonEscape(std::string("a\x01" "b")), "a\\u0001b");
  EXPECT_EQ(JsonEscape(std::string("\x1f")), "\\u001f");
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), "\\u0000");
}

TEST(JsonEscapeTest, PassesPrintableAndUtf8BytesThrough) {
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("plain text / 0-9 {}[]"), "plain text / 0-9 {}[]");
  const std::string utf8 = "\xc3\xa9t\xc3\xa9 \xe2\x82\xac \xf0\x9f\x94\x92";
  EXPECT_EQ(JsonEscape(utf8), utf8);
  EXPECT_EQ(JsonEscape("\x7f"), "\x7f");
}

TEST(JsonDoubleTest, NonFiniteValuesRenderAsNull) {
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonDouble(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonDoubleTest, FiniteValuesUseSeventeenSignificantDigits) {
  EXPECT_EQ(JsonDouble(0.0), "0");
  EXPECT_EQ(JsonDouble(5.0), "5");
  EXPECT_EQ(JsonDouble(-2.5), "-2.5");
  EXPECT_EQ(JsonDouble(0.1), "0.10000000000000001");
  EXPECT_EQ(JsonDouble(1e300), "1.0000000000000001e+300");
}

TEST(JsonDoubleTest, RoundTripsBitExactlyThroughStrtod) {
  auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  auto expect_round_trip = [&](double v) {
    const std::string text = JsonDouble(v);
    EXPECT_EQ(bits(std::strtod(text.c_str(), nullptr)), bits(v)) << text;
  };
  for (double v : {0.1, 1.0 / 3.0, -0.0, 0.95445859279324052,
                   36.559663982947015, std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::epsilon()}) {
    expect_round_trip(v);
  }
  // Random bit patterns across the whole exponent range.
  Rng rng(0x15017);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t b = rng.NextUint64();
    double v;
    std::memcpy(&v, &b, sizeof(v));
    if (std::isfinite(v)) expect_round_trip(v);
  }
}

}  // namespace
}  // namespace obs
}  // namespace gupt
