#include "src/pattern/enumerate.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace scwsc {
namespace pattern {
namespace {

/// Layout of the radix path's one 64-bit word per (row, generalization):
/// the pattern key above the row id. Attribute 0 holds the key's top field
/// and ALL is each field's all-ones code, one above every value of the
/// domain, so comparing keys as integers is CanonicalLess.
struct WordLayout {
  std::vector<unsigned> shift;     // each attribute field's shift in the word
  std::vector<std::uint64_t> all;  // each attribute field's all-ones code
  unsigned row_bits = 0;
  unsigned word_bits = 0;  // key bits + row bits; the radix path needs <= 64
};

WordLayout ComputeLayout(const Table& table) {
  WordLayout layout;
  const std::size_t n = table.num_rows();
  layout.row_bits = n == 0 ? 0 : static_cast<unsigned>(std::bit_width(n - 1));
  const std::size_t j = table.num_attributes();
  layout.shift.resize(j);
  layout.all.resize(j);
  unsigned total = layout.row_bits;
  for (std::size_t a = j; a-- > 0;) {
    // Values 0..d-1 plus ALL = 2^bits - 1 >= d need bit_width(d) bits.
    const unsigned bits = static_cast<unsigned>(
        std::bit_width(static_cast<std::uint64_t>(table.domain_size(a))));
    layout.shift[a] = total;
    layout.all[a] = (std::uint64_t{1} << bits) - 1;
    total += bits;
  }
  layout.word_bits = total;
  return layout;
}

Pattern UnpackPattern(std::uint64_t word, const WordLayout& layout) {
  std::vector<ValueId> values(layout.shift.size(), kAll);
  for (std::size_t a = 0; a < values.size(); ++a) {
    const std::uint64_t code = (word >> layout.shift[a]) & layout.all[a];
    if (code != layout.all[a]) values[a] = static_cast<ValueId>(code);
  }
  return Pattern(std::move(values));
}

/// Stable LSD radix sort of `words` on bits [lo, hi), one byte per pass. A
/// pass whose byte is equal in every word would move nothing and is skipped.
void RadixSortBits(std::vector<std::uint64_t>& words, unsigned lo,
                   unsigned hi) {
  constexpr unsigned kDigitBits = 8;
  constexpr std::uint64_t kDigitMask = (1u << kDigitBits) - 1;
  const unsigned passes = (hi - lo + kDigitBits - 1) / kDigitBits;
  std::vector<std::size_t> counts(std::size_t{passes} << kDigitBits, 0);
  for (const std::uint64_t w : words) {
    for (unsigned p = 0; p < passes; ++p) {
      ++counts[(std::size_t{p} << kDigitBits) +
               ((w >> (lo + p * kDigitBits)) & kDigitMask)];
    }
  }
  std::vector<std::uint64_t> scratch;
  for (unsigned p = 0; p < passes; ++p) {
    const unsigned shift = lo + p * kDigitBits;
    std::size_t* offset = counts.data() + (std::size_t{p} << kDigitBits);
    if (offset[(words[0] >> shift) & kDigitMask] == words.size()) continue;
    std::size_t sum = 0;
    for (std::size_t b = 0; b <= kDigitMask; ++b) {
      sum += std::exchange(offset[b], sum);
    }
    scratch.resize(words.size());
    for (const std::uint64_t w : words) {
      scratch[offset[(w >> shift) & kDigitMask]++] = w;
    }
    words.swap(scratch);
  }
}

/// Emits every (row, generalization) as one word, sorts the words on their
/// key bits and cuts each run of equal keys into a pattern. Rows are emitted
/// in ascending order and the sort is stable, so each run lists its rows
/// ascending without sorting on the row bits.
Result<std::vector<EnumeratedPattern>> EnumeratePacked(
    const Table& table, const WordLayout& layout,
    const EnumerateOptions& options) {
  const std::size_t n = table.num_rows();
  const std::size_t j = table.num_attributes();
  const std::size_t per_row = std::size_t{1} << j;
  if (n == 0) return std::vector<EnumeratedPattern>{};

  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  std::vector<std::uint64_t> words(n * per_row);
  std::uint64_t all_key = 0;
  for (std::size_t a = 0; a < j; ++a) {
    all_key |= layout.all[a] << layout.shift[a];
  }
  for (RowId r = 0; r < n; ++r) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      return TripStatus(trip, "pattern enumeration");
    }
    // Slot m of the row keeps the values of the attributes in bit mask m.
    std::uint64_t* slot = words.data() + std::size_t{r} * per_row;
    slot[0] = all_key | r;
    for (std::size_t a = 0; a < j; ++a) {
      const std::uint64_t flip = (layout.all[a] ^ table.value(r, a))
                                 << layout.shift[a];
      const std::size_t half = std::size_t{1} << a;
      for (std::size_t m = 0; m < half; ++m) slot[half + m] = slot[m] ^ flip;
    }
  }
  RadixSortBits(words, layout.row_bits, layout.word_bits);

  const auto key_of = [&](std::uint64_t w) { return w >> layout.row_bits; };
  std::size_t num_patterns = 1;
  for (std::size_t i = 1; i < words.size(); ++i) {
    if (key_of(words[i]) != key_of(words[i - 1])) ++num_patterns;
  }
  if (num_patterns > options.max_patterns) {
    return Status::ResourceExhausted(
        "pattern enumeration exceeded max_patterns");
  }
  if (ctx.ChargeNodes(num_patterns) != TripKind::kNone) {
    return TripStatus(ctx.tripped(), "pattern enumeration");
  }

  const std::uint64_t row_mask = (std::uint64_t{1} << layout.row_bits) - 1;
  std::vector<EnumeratedPattern> out;
  out.reserve(num_patterns);
  for (std::size_t begin = 0; begin < words.size();) {
    const std::uint64_t key = key_of(words[begin]);
    std::size_t end = begin + 1;
    while (end < words.size() && key_of(words[end]) == key) ++end;
    out.push_back(EnumeratedPattern{UnpackPattern(words[begin], layout), {}});
    std::vector<RowId>& rows = out.back().rows;
    rows.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      rows.push_back(static_cast<RowId>(words[i] & row_mask));
    }
    begin = end;
  }
  return out;
}

Result<std::vector<EnumeratedPattern>> EnumerateGeneric(
    const Table& table, const EnumerateOptions& options) {
  const std::size_t j = table.num_attributes();
  const std::size_t num_masks = std::size_t{1} << j;

  std::unordered_map<Pattern, std::uint32_t, PatternHash> index;
  std::vector<EnumeratedPattern> out;

  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      return TripStatus(trip, "pattern enumeration");
    }
    for (std::size_t mask = 0; mask < num_masks; ++mask) {
      std::vector<ValueId> values(j, kAll);
      for (std::size_t a = 0; a < j; ++a) {
        if (mask & (std::size_t{1} << a)) values[a] = table.value(r, a);
      }
      Pattern p(std::move(values));
      auto [it, inserted] =
          index.try_emplace(std::move(p), static_cast<std::uint32_t>(out.size()));
      if (inserted) {
        if (out.size() >= options.max_patterns) {
          return Status::ResourceExhausted(
              "pattern enumeration exceeded max_patterns");
        }
        if (ctx.ChargeNodes(1) != TripKind::kNone) {
          return TripStatus(ctx.tripped(), "pattern enumeration");
        }
        out.push_back(EnumeratedPattern{it->first, {}});
      }
      out[it->second].rows.push_back(r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const EnumeratedPattern& a, const EnumeratedPattern& b) {
              return CanonicalLess(a.pattern, b.pattern);
            });
  return out;
}

}  // namespace

Result<std::vector<EnumeratedPattern>> EnumerateAllPatterns(
    const Table& table, const EnumerateOptions& options) {
  if (table.num_attributes() == 0) {
    return Status::InvalidArgument("table has no pattern attributes");
  }
  if (table.num_attributes() > 20) {
    return Status::NotSupported(
        "more than 20 pattern attributes would enumerate 2^j > 1M "
        "generalizations per record; use the optimized algorithms instead");
  }
  const WordLayout layout = ComputeLayout(table);
  obs::Span span(options.trace, "enumerate");
  Result<std::vector<EnumeratedPattern>> out =
      layout.word_bits <= 64 ? EnumeratePacked(table, layout, options)
                             : EnumerateGeneric(table, options);
  if (options.trace != nullptr && out.ok()) {
    options.trace->metrics().counter("enumerate.patterns")
        .Increment(out->size());
  }
  return out;
}

}  // namespace pattern
}  // namespace scwsc
