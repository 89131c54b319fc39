// parse_json on hostile input: bench_diff reads every committed baseline
// through it, so any byte string must either parse or come back as an
// error — never crash, overflow the stack or trip a sanitizer.  The sweep
// is deterministic: every truncation and every single-bit flip of a
// committed baseline, nesting at and past the depth cap, and seeded
// overwrites.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/json_parse.hpp"
#include "src/support/rng.hpp"

namespace rasc::obs {
namespace {

std::string read_baseline(const std::string& name) {
  std::ifstream in(std::string(RASC_BASELINE_DIR) + "/" + name, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Parse `text`; a failure must come with an offset-tagged message.
bool parses(std::string_view text) {
  std::string error;
  const bool ok = parse_json(text, &error).has_value();
  if (!ok) {
    EXPECT_NE(error.find(" at offset "), std::string::npos) << error;
  }
  return ok;
}

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

std::string nested_objects(std::size_t depth) {
  std::string text;
  for (std::size_t i = 0; i < depth; ++i) text += "{\"k\":";
  text += "0";
  text += std::string(depth, '}');
  return text;
}

TEST(JsonRobustness, NestingParsesAtTheCapAndFailsOnePast) {
  EXPECT_TRUE(parses(nested_arrays(kMaxJsonDepth)));
  EXPECT_TRUE(parses(nested_objects(kMaxJsonDepth)));
  std::string error;
  EXPECT_FALSE(parse_json(nested_arrays(kMaxJsonDepth + 1), &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
  EXPECT_FALSE(parses(nested_objects(kMaxJsonDepth + 1)));
  // Siblings do not add up: depth is nesting, not count.
  std::string wide = "[";
  for (std::size_t i = 0; i < 2 * kMaxJsonDepth; ++i) {
    wide += (i == 0 ? "" : ",") + nested_arrays(kMaxJsonDepth - 1);
  }
  EXPECT_TRUE(parses(wide + "]"));
}

TEST(JsonRobustness, HundredThousandOpenBracketsFailCleanly) {
  EXPECT_FALSE(parses(std::string(100000, '[')));
  EXPECT_FALSE(parses(std::string(100000, '[') + std::string(100000, ']')));
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_FALSE(parses(objects));
}

TEST(JsonRobustness, EveryTruncationOfACommittedBaselineFailsCleanly) {
  const std::string text = read_baseline("BENCH_fleet_20k.json");
  ASSERT_GT(text.size(), 100u);
  ASSERT_TRUE(parses(text));
  // A strict prefix of an object is never a document; only trailing
  // whitespace may go.
  const std::size_t end = text.find_last_of('}') + 1;
  for (std::size_t n = 0; n < text.size(); ++n) {
    EXPECT_EQ(parses(std::string_view(text).substr(0, n)), n >= end) << "length " << n;
  }
}

TEST(JsonRobustness, EverySingleBitFlipOfACommittedBaselineParsesOrFails) {
  const std::string text = read_baseline("BENCH_fleet_20k.json");
  ASSERT_GT(text.size(), 100u);
  std::size_t rejected = 0;
  std::string flipped = text;
  for (std::size_t at = 0; at < text.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      flipped[at] = static_cast<char>(text[at] ^ (1 << bit));
      if (!parses(flipped)) ++rejected;
    }
    flipped[at] = text[at];
  }
  // Flips inside strings and digits can leave valid JSON; structural ones
  // cannot.
  EXPECT_GT(rejected, text.size());
  EXPECT_LT(rejected, 8 * text.size());
}

TEST(JsonRobustness, SeededOverwritesOfACommittedBaselineParseOrFail) {
  const std::string text = read_baseline("BENCH_fleet_20k.json");
  ASSERT_GT(text.size(), 100u);
  // Half the overwrites draw from the grammar's own bytes, so they build
  // deep or unbalanced structure rather than only noise.
  constexpr std::string_view kGrammar = "[]{}\",:-+.eE0123456789tfnul\\ ";
  support::Xoshiro256 rng(0x15011);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = text;
    const std::size_t runs = 1 + rng.below(4);
    for (std::size_t r = 0; r < runs; ++r) {
      const std::size_t at = rng.below(mutated.size());
      const std::size_t len = 1 + rng.below(16);
      for (std::size_t k = at; k < std::min(at + len, mutated.size()); ++k) {
        mutated[k] = rng.chance(0.5) ? kGrammar[rng.below(kGrammar.size())]
                                     : static_cast<char>(rng.below(256));
      }
    }
    (void)parses(mutated);
  }
}

}  // namespace
}  // namespace rasc::obs
