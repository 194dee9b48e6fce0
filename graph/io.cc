#include "graph/io.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <vector>

namespace netshuffle {

namespace {

// Bytes between the read position and the end of the file.
size_t RemainingBytes(std::FILE* f) {
  const long here = std::ftell(f);
  if (here < 0 || std::fseek(f, 0, SEEK_END) != 0) return 0;
  const long end = std::ftell(f);
  if (end < here || std::fseek(f, here, SEEK_SET) != 0) return 0;
  return static_cast<size_t>(end - here);
}

enum class Token { kNumber, kEnd, kBad };

// Reads the next whitespace-separated token as an unsigned decimal number
// below `limit`.  kEnd at end of file; kBad for a sign, any other non-digit,
// or a value >= limit — caught digit by digit, so no value can wrap into
// range the way scanf's %u and %zu conversions do.  The FILE is private to
// LoadEdgeList, so the per-character reads skip stdio's locking.
Token ReadBelow(std::FILE* f, uint64_t limit, uint64_t* out) {
  int c = getc_unlocked(f);
  while (c != EOF && std::isspace(c)) c = getc_unlocked(f);
  if (c == EOF) return Token::kEnd;
  uint64_t value = 0;
  for (; c != EOF && !std::isspace(c); c = getc_unlocked(f)) {
    if (!std::isdigit(c)) return Token::kBad;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    // value * 10 + digit < limit, without overflow.
    if (limit <= digit || value > (limit - 1 - digit) / 10) {
      return Token::kBad;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return Token::kNumber;
}

}  // namespace

bool SaveEdgeList(const Graph& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# netshuffle-edgelist %zu %zu\n", g.num_nodes(),
               g.num_edges());
  for (const Edge& e : g.EdgeList()) {
    std::fprintf(f, "%" PRIu32 " %" PRIu32 "\n", e.first, e.second);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool LoadEdgeList(const std::string& path, Graph* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  // The header is untrusted: node ids are NodeId-wide, and every edge line
  // takes at least 3 bytes ("u v"), so a count the file cannot hold is
  // malformed rather than an allocation to attempt.
  int header_end = -1;
  uint64_t n = 0, m = 0;
  if (std::fscanf(f, "# netshuffle-edgelist%n", &header_end) == EOF ||
      header_end < 0 ||
      ReadBelow(f, uint64_t{std::numeric_limits<NodeId>::max()} + 1, &n) !=
          Token::kNumber ||
      ReadBelow(f, std::numeric_limits<uint64_t>::max(), &m) !=
          Token::kNumber ||
      m > RemainingBytes(f) / 3) {
    std::fclose(f);
    return false;
  }
  std::vector<Edge> edges;
  edges.reserve(m);
  uint64_t u = 0, v = 0;
  Token first;
  while ((first = ReadBelow(f, n, &u)) == Token::kNumber) {
    if (ReadBelow(f, n, &v) != Token::kNumber) break;
    edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
  }
  std::fclose(f);
  if (first != Token::kEnd || edges.size() != m) return false;
  *out = Graph::FromEdges(n, std::move(edges));
  return true;
}

}  // namespace netshuffle
