#include "query/ast.hpp"

#include <charconv>
#include <sstream>

namespace kspot::query {

std::string CompareOpText(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
  }
  return "?";
}

namespace {

/// Shortest fixed-notation text that parses back to exactly `v`, so the
/// round trip is lossless (the lexer reads no exponents, so 3e10 prints as
/// 30000000000).
std::string ShortestRoundTrip(double v) {
  char buf[400];  // fixed notation of any finite double fits
  auto result = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed);
  return std::string(buf, result.ptr);
}

}  // namespace

std::string ParsedQuery::ToSql() const {
  std::ostringstream oss;
  oss << "SELECT";
  if (top_k > 0) oss << " TOP " << top_k;
  for (size_t i = 0; i < select.size(); ++i) {
    oss << (i == 0 ? " " : ", ");
    if (select[i].is_aggregate()) {
      oss << select[i].aggregate << '(' << select[i].attribute << ')';
    } else {
      oss << select[i].attribute;
    }
  }
  oss << " FROM " << from;
  if (has_where) {
    oss << " WHERE " << where.attribute << ' ' << CompareOpText(where.op) << ' '
        << ShortestRoundTrip(where.literal);
  }
  if (!group_by.empty()) oss << " GROUP BY " << group_by;
  if (epoch_duration_s > 0) {
    // Canonicalize to seconds (the parser accepts ms/s/min).
    oss << " EPOCH DURATION " << ShortestRoundTrip(epoch_duration_s) << " s";
  }
  if (history > 0) oss << " WITH HISTORY " << history;
  return oss.str();
}

std::string QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kBasicSelect: return "basic-select";
    case QueryClass::kSnapshotTopK: return "snapshot-topk";
    case QueryClass::kHistoricHorizontal: return "historic-horizontal";
    case QueryClass::kHistoricVertical: return "historic-vertical";
  }
  return "?";
}

}  // namespace kspot::query
