#include "codec/huffman.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <queue>

#include "codec/bitio.h"
#include "tensor/workspace.h"
#include "util/bytes.h"
#include "util/check.h"

namespace glsc::codec {
namespace {

struct Node {
  std::uint64_t weight;
  int symbol_index;  // -1 for internal
  int left = -1, right = -1;
};

// Computes code lengths via a standard two-queue Huffman construction, then
// assigns canonical codes (sorted by length, then symbol order).
void BuildCodeLengths(const std::vector<std::uint64_t>& freqs,
                      std::vector<int>* lengths) {
  const int n = static_cast<int>(freqs.size());
  lengths->assign(n, 0);
  if (n == 1) {
    (*lengths)[0] = 1;
    return;
  }
  std::vector<Node> nodes;
  nodes.reserve(2 * n);
  using Entry = std::pair<std::uint64_t, int>;  // (weight, node index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int i = 0; i < n; ++i) {
    nodes.push_back({freqs[i], i});
    heap.push({freqs[i], i});
  }
  while (heap.size() > 1) {
    const auto [wa, a] = heap.top();
    heap.pop();
    const auto [wb, b] = heap.top();
    heap.pop();
    nodes.push_back({wa + wb, -1, a, b});
    heap.push({wa + wb, static_cast<int>(nodes.size()) - 1});
  }
  // DFS to assign depths.
  std::vector<std::pair<int, int>> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(idx)];
    if (node.symbol_index >= 0) {
      (*lengths)[node.symbol_index] = std::max(depth, 1);
    } else {
      stack.push_back({node.left, depth + 1});
      stack.push_back({node.right, depth + 1});
    }
  }
}

// Canonical code assignment from lengths; returns (code, length) pairs.
void AssignCanonicalCodes(const std::vector<int>& lengths,
                          std::vector<std::uint32_t>* codes) {
  const int n = static_cast<int>(lengths.size());
  codes->assign(n, 0);
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (lengths[a] != lengths[b]) return lengths[a] < lengths[b];
    return a < b;
  });
  std::uint32_t code = 0;
  int prev_len = 0;
  for (const int idx : order) {
    code <<= (lengths[idx] - prev_len);
    (*codes)[idx] = code;
    ++code;
    prev_len = lengths[idx];
  }
}

}  // namespace

std::vector<std::uint8_t> HuffmanEncode(
    const std::vector<std::int32_t>& symbols) {
  ByteWriter out;
  out.PutVarU64(symbols.size());
  if (symbols.empty()) return out.Release();

  // Dense symbol dictionary in first-seen order, sorted for determinism.
  std::map<std::int32_t, std::uint64_t> freq_map;
  for (const auto s : symbols) ++freq_map[s];
  std::vector<std::int32_t> alphabet;
  std::vector<std::uint64_t> freqs;
  alphabet.reserve(freq_map.size());
  for (const auto& [sym, f] : freq_map) {
    alphabet.push_back(sym);
    freqs.push_back(f);
  }

  std::vector<int> lengths;
  BuildCodeLengths(freqs, &lengths);
  std::vector<std::uint32_t> codes;
  AssignCanonicalCodes(lengths, &codes);

  out.PutVarU64(alphabet.size());
  for (std::size_t i = 0; i < alphabet.size(); ++i) {
    out.PutVarI64(alphabet[i]);
    out.PutU8(static_cast<std::uint8_t>(lengths[i]));
  }

  std::map<std::int32_t, std::size_t> index;
  for (std::size_t i = 0; i < alphabet.size(); ++i) index[alphabet[i]] = i;

  BitWriter bits;
  for (const auto s : symbols) {
    const std::size_t i = index[s];
    GLSC_CHECK_MSG(lengths[i] <= 32, "pathological Huffman depth");
    bits.PutBits(codes[i], lengths[i]);
  }
  const auto payload = bits.Finish();
  out.PutVarU64(payload.size());
  out.PutBytes(payload.data(), payload.size());
  return out.Release();
}

std::vector<std::int32_t> HuffmanDecode(const std::vector<std::uint8_t>& bytes) {
  HuffmanReader reader(bytes.data(), bytes.size());
  std::vector<std::int32_t> symbols(static_cast<std::size_t>(reader.count()));
  for (std::int32_t& s : symbols) s = reader.Next();
  return symbols;
}

HuffmanReader::HuffmanReader(const std::uint8_t* data, std::size_t size,
                             tensor::Workspace* ws) {
  ByteReader in(data, size);
  count_ = in.GetVarU64();
  if (count_ == 0) return;

  // Pass 1 validates the table and counts codes per length; nothing is
  // allocated until the whole header has been checked against the input.
  const std::uint64_t alpha_size = in.GetVarU64();
  GLSC_CHECK_MSG(alpha_size >= 1 && alpha_size <= count_,
                 "corrupt Huffman stream: alphabet of " << alpha_size
                                                        << " for " << count_
                                                        << " symbols");
  // Each entry costs at least two bytes (value varint + length byte).
  GLSC_CHECK_MSG(alpha_size <= in.remaining() / 2,
                 "corrupt Huffman stream: alphabet longer than the stream");
  const std::size_t table_begin = in.pos();
  for (std::uint64_t i = 0; i < alpha_size; ++i) {
    const std::int64_t value = in.GetVarI64();
    GLSC_CHECK_MSG(value >= INT32_MIN && value <= INT32_MAX,
                   "corrupt Huffman stream: symbol " << value
                                                     << " outside int32");
    const int len = in.GetU8();
    GLSC_CHECK_MSG(len >= 1 && len <= kMaxCodeBits,
                   "corrupt Huffman stream: code length " << len);
    ++count_at_[static_cast<std::size_t>(len)];
    max_len_ = std::max(max_len_, len);
  }
  // Canonical codes: lengths ascending, symbols in table order within one
  // length. A length holding more codes than remain at it is an
  // over-subscribed table (Kraft sum above 1), which no prefix code has.
  {
    std::uint64_t code = 0;
    std::uint64_t index = 0;
    for (int len = 1; len <= kMaxCodeBits; ++len) {
      code <<= 1;
      first_code_[static_cast<std::size_t>(len)] = code;
      first_index_[static_cast<std::size_t>(len)] = index;
      const std::uint64_t n = count_at_[static_cast<std::size_t>(len)];
      GLSC_CHECK_MSG(n <= (std::uint64_t{1} << len) - code,
                     "corrupt Huffman stream: over-subscribed code table");
      code += n;
      index += n;
    }
  }
  payload_size_ = static_cast<std::size_t>(in.GetVarU64());
  GLSC_CHECK_MSG(payload_size_ <= in.remaining(),
                 "corrupt Huffman stream: payload of "
                     << payload_size_ << " bytes, " << in.remaining()
                     << " left");
  // Every code is at least one bit long, so no encoder writes more symbols
  // than payload bits.
  GLSC_CHECK_MSG(count_ / 8 + (count_ % 8 != 0 ? 1 : 0) <= payload_size_,
                 "corrupt Huffman stream: " << count_ << " symbols in "
                                            << payload_size_
                                            << " payload bytes");
  payload_ = data + in.pos();

  // Pass 2 places the alphabet in canonical order (a counting sort by
  // length, stable in table order).
  std::int32_t* sorted = nullptr;
  if (ws != nullptr) {
    sorted = reinterpret_cast<std::int32_t*>(
        ws->Allocate(static_cast<std::int64_t>(alpha_size)));
  } else {
    heap_sorted_.resize(static_cast<std::size_t>(alpha_size));
    sorted = heap_sorted_.data();
  }
  sorted_ = sorted;
  {
    std::array<std::uint64_t, kMaxCodeBits + 1> next = first_index_;
    ByteReader table(data + table_begin, size - table_begin);
    for (std::uint64_t i = 0; i < alpha_size; ++i) {
      const auto value = static_cast<std::int32_t>(table.GetVarI64());
      sorted[next[table.GetU8()]++] = value;
    }
  }

  // Lookup table: each code of up to kTableBits bits fills every entry it
  // prefixes.
  for (int len = 1; len <= std::min(max_len_, kTableBits); ++len) {
    const auto l = static_cast<std::size_t>(len);
    for (std::uint64_t k = 0; k < count_at_[l]; ++k) {
      const std::uint64_t code = first_code_[l] + k;
      const Entry entry{sorted[first_index_[l] + k], len};
      const int spare = kTableBits - len;
      std::fill(table_.begin() + static_cast<std::ptrdiff_t>(code << spare),
                table_.begin() + static_cast<std::ptrdiff_t>((code + 1) << spare),
                entry);
    }
  }
}

void HuffmanReader::Refill() {
  if (pos_ + 8 <= payload_size_) {
    // Branch-free refill: load 8 bytes big-endian, keep the whole bytes that
    // fit. The bits below the new count are the stream's next bits, which
    // the next refill ORs in again unchanged.
    std::uint64_t word;
    std::memcpy(&word, payload_ + pos_, sizeof word);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    bits_ |= word >> nbits_;
    pos_ += static_cast<std::size_t>((63 - nbits_) >> 3);
    nbits_ |= 56;
    return;
  }
  // Last bytes: one at a time, zeros past the end.
  while (nbits_ <= 56) {
    const std::uint64_t byte = pos_ < payload_size_ ? payload_[pos_] : 0;
    bits_ |= byte << (56 - nbits_);
    ++pos_;
    nbits_ += 8;
  }
}

std::int32_t HuffmanReader::NextLong() {
  const std::uint64_t top = bits_ >> (64 - kMaxCodeBits);
  for (int len = kTableBits + 1; len <= max_len_; ++len) {
    const auto l = static_cast<std::size_t>(len);
    const std::uint64_t code = top >> (kMaxCodeBits - len);
    if (code >= first_code_[l] && code - first_code_[l] < count_at_[l]) {
      bits_ <<= len;
      nbits_ -= len;
      return sorted_[first_index_[l] + (code - first_code_[l])];
    }
  }
  GLSC_CHECK_MSG(false, "corrupt Huffman stream: no code matches");
  return 0;
}

double SymbolEntropyBits(const std::vector<std::int32_t>& symbols) {
  if (symbols.empty()) return 0.0;
  std::map<std::int32_t, std::uint64_t> freq;
  for (const auto s : symbols) ++freq[s];
  const double n = static_cast<double>(symbols.size());
  double bits = 0.0;
  for (const auto& [sym, f] : freq) {
    const double p = static_cast<double>(f) / n;
    bits += -static_cast<double>(f) * std::log2(p);
  }
  return bits;
}

}  // namespace glsc::codec
