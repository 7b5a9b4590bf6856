#include "src/trace/opt_trace.h"

#include <cstdio>
#include <sstream>

#include "src/common/strings.h"

namespace oodb {

const char* OptEventKindName(OptEventKind kind) {
  switch (kind) {
    case OptEventKind::kRuleFired:
      return "rule-fired";
    case OptEventKind::kGroupExplored:
      return "group-explored";
    case OptEventKind::kWinnerReplaced:
      return "winner-replaced";
    case OptEventKind::kBranchPruned:
      return "branch-pruned";
    case OptEventKind::kEnforcerInserted:
      return "enforcer-inserted";
    case OptEventKind::kVerifyOutcome:
      return "verify-outcome";
  }
  return "unknown";
}

OptTrace::OptTrace(size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {
  ring_.reserve(capacity_);
}

void OptTrace::Record(OptEvent&& event) {
  ++recorded_;
  ++counts_[static_cast<size_t>(event.kind)];
  if (size_ < capacity_) {
    ring_.push_back(std::move(event));
    ++size_;
  } else {
    ring_[next_] = std::move(event);
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<OptEvent> OptTrace::Events() const {
  std::vector<OptEvent> out;
  out.reserve(size_);
  // Until the ring fills, events sit in insertion order from slot 0; once
  // full, `next_` is the oldest retained slot.
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(size_ < capacity_ ? ring_[i]
                                    : ring_[(next_ + i) % capacity_]);
  }
  return out;
}

std::string OptTrace::ToText() const {
  std::ostringstream os;
  os << "optimizer trace: " << recorded_ << " events";
  if (dropped() > 0) os << " (" << dropped() << " dropped)";
  os << "\n";
  for (const OptEvent& e : Events()) {
    os << "  " << OptEventKindName(e.kind);
    if (e.rule != nullptr && e.rule[0] != '\0') os << " " << e.rule;
    if (e.group >= 0) os << " g" << e.group;
    if (e.mexpr >= 0) os << " #" << e.mexpr;
    if (e.cost >= 0.0) os << " cost=" << FormatDouble(e.cost, 6);
    if (e.op != nullptr && e.op[0] != '\0') os << " " << e.op;
    if (!e.detail.empty()) os << " " << e.detail;
    os << "\n";
  }
  return os.str();
}

namespace {

void AppendJsonString(const std::string& s, std::ostringstream& os) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string OptTrace::ToJson() const {
  std::ostringstream os;
  os << "{\"recorded\":" << recorded_ << ",\"dropped\":" << dropped()
     << ",\"counts\":{";
  for (int k = 0; k < kNumOptEventKinds; ++k) {
    if (k > 0) os << ",";
    AppendJsonString(OptEventKindName(static_cast<OptEventKind>(k)), os);
    os << ":" << counts_[k];
  }
  os << "},\"events\":[";
  bool first = true;
  for (const OptEvent& e : Events()) {
    if (!first) os << ",";
    first = false;
    os << "{\"kind\":";
    AppendJsonString(OptEventKindName(e.kind), os);
    if (e.rule != nullptr && e.rule[0] != '\0') {
      os << ",\"rule\":";
      AppendJsonString(e.rule, os);
    }
    if (e.group >= 0) os << ",\"group\":" << e.group;
    if (e.mexpr >= 0) os << ",\"mexpr\":" << e.mexpr;
    if (e.cost >= 0.0) os << ",\"cost\":" << FormatDouble(e.cost, 9);
    if (e.op != nullptr && e.op[0] != '\0') {
      os << ",\"op\":";
      AppendJsonString(e.op, os);
    }
    if (!e.detail.empty()) {
      os << ",\"detail\":";
      AppendJsonString(e.detail, os);
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

void OptTrace::Clear() {
  ring_.clear();
  next_ = 0;
  size_ = 0;
  recorded_ = 0;
  for (int64_t& c : counts_) c = 0;
}

}  // namespace oodb
