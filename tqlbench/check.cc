#include "check.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>

#include "core/equivalence.h"
#include "core/hash.h"
#include "exec/evaluator.h"
#include "tql/translator.h"

namespace tqlbench {

using tqp::Result;
using tqp::Status;
using tqp::Tuple;
using tqp::Value;
using tqp::ValueType;

Coverage Cover(std::vector<Period> periods) {
  std::sort(periods.begin(), periods.end(),
            [](const Period& a, const Period& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
            });
  Coverage out;
  for (const Period& p : periods) {
    if (!p.Valid()) continue;
    if (!out.empty() && p.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, p.end);
    } else {
      out.push_back(p);
    }
  }
  return out;
}

Coverage Minus(const Coverage& a, const Coverage& b) {
  Coverage out;
  size_t j = 0;
  for (Period p : a) {
    while (j < b.size() && b[j].end <= p.begin) ++j;
    for (size_t k = j; k < b.size() && b[k].begin < p.end; ++k) {
      if (b[k].begin > p.begin) out.emplace_back(p.begin, b[k].begin);
      p.begin = std::max(p.begin, b[k].end);
    }
    if (p.Valid()) out.push_back(p);
  }
  return out;
}

std::map<std::string, Coverage> CoverageByKey(
    const Relation& r, const std::string& key,
    const std::function<bool(const Tuple&)>& keep) {
  const int k = r.schema().IndexOf(key);
  const int t1 = r.schema().T1Index();
  const int t2 = r.schema().T2Index();
  std::map<std::string, std::vector<Period>> periods;
  if (k < 0 || t1 < 0 || t2 < 0) return {};
  for (const Tuple& t : r.tuples()) {
    if (keep && !keep(t)) continue;
    periods[t.at(k).ToString()].emplace_back(t.at(t1).AsTime(),
                                             t.at(t2).AsTime());
  }
  std::map<std::string, Coverage> out;
  for (auto& [name, ps] : periods) {
    Coverage c = Cover(std::move(ps));
    if (!c.empty()) out.emplace(name, std::move(c));
  }
  return out;
}

std::string CheckContract(const QueryContract& contract, const Relation& got,
                          const Relation& reference) {
  if (got.schema() != reference.schema()) {
    return "schema " + got.schema().ToString() + " differs from reference " +
           reference.schema().ToString();
  }
  switch (contract.result_type) {
    case tqp::ResultType::kList:
      if (!tqp::EquivalentAsMultisets(got, reference)) {
        return "not multiset-equivalent to the reference (" +
               std::to_string(got.size()) + " vs " +
               std::to_string(reference.size()) + " rows)";
      }
      if (!tqp::EquivalentAsListsOn(contract.order_by, got, reference)) {
        return "ORDER BY columns differ from the reference as lists";
      }
      return "";
    case tqp::ResultType::kMultiset:
      if (!tqp::EquivalentAsMultisets(got, reference)) {
        return "not multiset-equivalent to the reference (" +
               std::to_string(got.size()) + " vs " +
               std::to_string(reference.size()) + " rows)";
      }
      return "";
    case tqp::ResultType::kSet:
      if (!tqp::EquivalentAsSets(got, reference)) {
        return "not set-equivalent to the reference";
      }
      return "";
  }
  return "unknown contract";
}

std::string CheckSorted(const Relation& got, const SortSpec& spec) {
  std::vector<std::pair<int, bool>> keys;
  for (const tqp::SortKey& k : spec) {
    const int i = got.schema().IndexOf(k.attr);
    if (i < 0) return "ORDER BY attribute " + k.attr + " missing";
    keys.emplace_back(i, k.ascending);
  }
  for (size_t r = 1; r < got.size(); ++r) {
    for (const auto& [i, asc] : keys) {
      int c = got.tuple(r - 1).at(i).Compare(got.tuple(r).at(i));
      if (!asc) c = -c;
      if (c < 0) break;
      if (c > 0) return "rows " + std::to_string(r - 1) + " and " +
                        std::to_string(r) + " are out of ORDER BY order";
    }
  }
  return "";
}

std::string CheckDistinct(const Relation& got) {
  const int t1 = got.schema().T1Index();
  const int t2 = got.schema().T2Index();
  if (got.IsTemporal()) {
    // Temporal DISTINCT: no snapshot holds two value-equivalent tuples, so
    // the periods of one value never overlap.
    std::map<std::vector<Value>, std::vector<Period>> periods;
    for (const Tuple& t : got.tuples()) {
      std::vector<Value> key;
      for (size_t i = 0; i < t.size(); ++i) {
        if (static_cast<int>(i) != t1 && static_cast<int>(i) != t2) {
          key.push_back(t.at(i));
        }
      }
      periods[key].emplace_back(t.at(t1).AsTime(), t.at(t2).AsTime());
    }
    for (auto& [key, ps] : periods) {
      std::sort(ps.begin(), ps.end(), [](const Period& a, const Period& b) {
        return a.begin < b.begin;
      });
      for (size_t i = 1; i < ps.size(); ++i) {
        if (ps[i].begin < ps[i - 1].end) {
          return "snapshot duplicate of " + key.front().ToString();
        }
      }
    }
    return "";
  }
  std::vector<const Tuple*> rows;
  rows.reserve(got.size());
  for (const Tuple& t : got.tuples()) rows.push_back(&t);
  std::sort(rows.begin(), rows.end(),
            [](const Tuple* a, const Tuple* b) { return a->Compare(*b) < 0; });
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i - 1]->Compare(*rows[i]) == 0) {
      return "duplicate row " + rows[i]->ToString();
    }
  }
  return "";
}

std::string CheckCoalesced(const Relation& got, const std::string& key,
                           const std::map<std::string, Coverage>& cover) {
  const int k = got.schema().IndexOf(key);
  const int t1 = got.schema().T1Index();
  const int t2 = got.schema().T2Index();
  if (k < 0 || t1 < 0 || t2 < 0 || got.schema().size() != 3) {
    return "coalesced result is not (" + key + ", T1, T2)";
  }
  std::map<std::string, std::vector<Period>> periods;
  for (const Tuple& t : got.tuples()) {
    periods[t.at(k).ToString()].emplace_back(t.at(t1).AsTime(),
                                             t.at(t2).AsTime());
  }
  for (auto& [name, ps] : periods) {
    std::sort(ps.begin(), ps.end(), [](const Period& a, const Period& b) {
      return a.begin < b.begin;
    });
    for (size_t i = 1; i < ps.size(); ++i) {
      if (ps[i].begin <= ps[i - 1].end) {
        return "value-equivalent periods of " + name +
               (ps[i].begin == ps[i - 1].end ? " meet" : " overlap");
      }
    }
    auto it = cover.find(name);
    if (it == cover.end() || it->second != ps) {
      return "periods of " + name + " do not cover the expected snapshots";
    }
  }
  if (periods.size() != cover.size()) {
    return std::to_string(cover.size() - periods.size()) +
           " expected values missing from the coalesced result";
  }
  return "";
}

std::string CheckCountTotal(const Relation& got, const std::string& attr,
                            int64_t total) {
  const int i = got.schema().IndexOf(attr);
  if (i < 0) return "count attribute " + attr + " missing";
  int64_t sum = 0;
  for (const Tuple& t : got.tuples()) {
    if (t.at(i).type() != ValueType::kInt) return "count is not an int";
    sum += t.at(i).AsInt();
  }
  if (sum != total) {
    return "group counts sum to " + std::to_string(sum) + ", expected " +
           std::to_string(total);
  }
  return "";
}

std::string CheckResult(const QueryContract& contract, const Expectation& e,
                        const Relation& got, const Relation& reference) {
  std::string why = CheckContract(contract, got, reference);
  if (why.empty() && !e.sorted_by.empty()) why = CheckSorted(got, e.sorted_by);
  if (why.empty() && e.distinct) why = CheckDistinct(got);
  if (why.empty() && e.coalesced) why = CheckCoalesced(got, e.cover_key, e.cover);
  if (why.empty() && e.count_total >= 0) {
    why = CheckCountTotal(got, e.count_attr, e.count_total);
  }
  return why;
}

Result<Reference> ReferenceResult(const std::string& text,
                                  const tqp::Catalog& catalog) {
  TQP_ASSIGN_OR_RETURN(compiled, tqp::CompileQuery(text, catalog));
  TQP_ASSIGN_OR_RETURN(ann, tqp::AnnotatedPlan::Make(compiled.plan, &catalog,
                                                     compiled.contract));
  TQP_ASSIGN_OR_RETURN(rel, tqp::Evaluate(ann));
  return Reference{std::move(rel), compiled.contract};
}

namespace {

// A JSON reader for the two frame shapes the checker needs: objects,
// arrays, strings, numbers, true/false/null.
struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  std::string text;  // kString payload, or the number's literal
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* Field(const std::string& name) const {
    for (const auto& [k, v] : fields) {
      if (k == name) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& s) : s_(s) {}

  bool Read(Json* out) {
    if (!Value(out)) return false;
    Skip();
    return pos_ == s_.size();
  }

 private:
  void Skip() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    Skip();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char e = s_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          const long code = std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          if (code >= 0x80) return false;  // the writer escapes only controls
          out->push_back(static_cast<char>(code));
          break;
        }
        default: out->push_back(e);
      }
    }
    return false;
  }
  bool Value(Json* out) {
    Skip();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = Json::kObject;
      if (Eat('}')) return true;
      do {
        std::string key;
        Json v;
        if (!String(&key) || !Eat(':') || !Value(&v)) return false;
        out->fields.emplace_back(std::move(key), std::move(v));
      } while (Eat(','));
      return Eat('}');
    }
    if (c == '[') {
      ++pos_;
      out->kind = Json::kArray;
      if (Eat(']')) return true;
      do {
        Json v;
        if (!Value(&v)) return false;
        out->items.push_back(std::move(v));
      } while (Eat(','));
      return Eat(']');
    }
    if (c == '"') {
      out->kind = Json::kString;
      return String(&out->text);
    }
    if (Literal("null")) return true;
    if (Literal("true") || Literal("false")) {
      out->kind = Json::kBool;
      out->boolean = s_[pos_ - 4] == 't';
      return true;
    }
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           std::strchr("+-0123456789.eE", s_[pos_]) != nullptr) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = Json::kNumber;
    out->text = s_.substr(start, pos_ - start);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

Result<ValueType> TypeNamed(const std::string& name) {
  for (ValueType t : {ValueType::kNull, ValueType::kInt, ValueType::kDouble,
                      ValueType::kString, ValueType::kTime}) {
    if (name == tqp::ValueTypeName(t)) return t;
  }
  return Status::Error("unknown column type " + name);
}

Result<Value> ToValue(const Json& j, ValueType type) {
  if (j.kind == Json::kNull) return Value::Null();
  switch (type) {
    case ValueType::kInt:
    case ValueType::kTime: {
      if (j.kind != Json::kNumber) break;
      char* end = nullptr;
      const long long v = std::strtoll(j.text.c_str(), &end, 10);
      if (*end != '\0') break;
      return type == ValueType::kInt ? Value::Int(v) : Value::Time(v);
    }
    case ValueType::kDouble:
      if (j.kind != Json::kNumber) break;
      return Value::Double(std::strtod(j.text.c_str(), nullptr));
    case ValueType::kString:
      if (j.kind != Json::kString) break;
      return Value::String(j.text);
    case ValueType::kNull:
      break;
  }
  return Status::Error("row value does not match its column type");
}

}  // namespace

Result<Relation> ParseFrames(const std::string& raw) {
  Relation out;
  std::vector<ValueType> types;
  bool have_schema = false;
  size_t start = 0;
  while (start < raw.size()) {
    size_t end = raw.find('\n', start);
    if (end == std::string::npos) end = raw.size();
    Json frame;
    if (!JsonReader(raw.substr(start, end - start)).Read(&frame) ||
        frame.kind != Json::kObject) {
      return Status::Error("malformed frame");
    }
    start = end + 1;
    const Json* type = frame.Field("type");
    if (type == nullptr) return Status::Error("frame without type");
    if (type->text == "schema") {
      const Json* attrs = frame.Field("attrs");
      if (attrs == nullptr || attrs->kind != Json::kArray) {
        return Status::Error("schema frame without attrs");
      }
      std::vector<tqp::Attribute> schema;
      for (const Json& a : attrs->items) {
        const Json* name = a.Field("name");
        const Json* t = a.Field("type");
        if (name == nullptr || t == nullptr) {
          return Status::Error("schema attribute without name/type");
        }
        TQP_ASSIGN_OR_RETURN(vt, TypeNamed(t->text));
        schema.push_back(tqp::Attribute{name->text, vt});
        types.push_back(vt);
      }
      out = Relation(tqp::Schema(std::move(schema)));
      have_schema = true;
    } else if (type->text == "batch") {
      const Json* rows = frame.Field("rows");
      if (!have_schema || rows == nullptr || rows->kind != Json::kArray) {
        return Status::Error("batch frame before schema or without rows");
      }
      for (const Json& row : rows->items) {
        if (row.items.size() != types.size()) {
          return Status::Error("row arity differs from the schema");
        }
        Tuple t;
        for (size_t i = 0; i < types.size(); ++i) {
          TQP_ASSIGN_OR_RETURN(v, ToValue(row.items[i], types[i]));
          t.push_back(std::move(v));
        }
        out.Append(std::move(t));
      }
    } else {
      return Status::Error("unexpected frame " + type->text);
    }
  }
  if (!have_schema) return Status::Error("no schema frame");
  return out;
}

uint64_t ListDigest(const Relation& r) {
  uint64_t h = tqp::HashString(r.schema().ToString());
  for (const Tuple& t : r.tuples()) {
    h = tqp::HashCombine(h, static_cast<uint64_t>(t.Hash()));
  }
  return tqp::HashCombine(h, r.size());
}

}  // namespace tqlbench
