#include "api/query.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "common/crc32.h"

namespace utk {

const char* QueryModeName(QueryMode mode) {
  switch (mode) {
    case QueryMode::kUtk1: return "UTK1";
    case QueryMode::kUtk2: return "UTK2";
  }
  return "?";
}

const char* AlgorithmName(Algorithm algo) {
  switch (algo) {
    case Algorithm::kAuto: return "AUTO";
    case Algorithm::kRsa: return "RSA";
    case Algorithm::kJaa: return "JAA";
    case Algorithm::kBaselineSk: return "SK";
    case Algorithm::kBaselineOn: return "ON";
    case Algorithm::kNaive: return "NAIVE";
  }
  return "?";
}

std::optional<Algorithm> ParseAlgorithm(const std::string& name) {
  std::string s = name;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "auto") return Algorithm::kAuto;
  if (s == "rsa") return Algorithm::kRsa;
  if (s == "jaa") return Algorithm::kJaa;
  if (s == "sk") return Algorithm::kBaselineSk;
  if (s == "on") return Algorithm::kBaselineOn;
  if (s == "naive") return Algorithm::kNaive;
  return std::nullopt;
}

std::string SpecFingerprint(const QuerySpec& spec) {
  // CRC the raw region scalars: box bounds, or every constraint's (a, b).
  uint32_t crc = 0;
  auto add = [&crc](Scalar v) { crc = Crc32(&v, sizeof(v), crc); };
  if (spec.region.is_box()) {
    for (Scalar v : spec.region.box_lo()) add(v);
    for (Scalar v : spec.region.box_hi()) add(v);
  } else {
    for (const Halfspace& h : spec.region.constraints()) {
      for (Scalar v : h.a) add(v);
      add(h.b);
    }
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/%s/k=%d/d=%d/r=%08x",
                QueryModeName(spec.mode), AlgorithmName(spec.algorithm),
                spec.k, spec.region.dim(), crc);
  std::string fp = buf;
  std::transform(fp.begin(), fp.end(), fp.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return fp;
}

}  // namespace utk
