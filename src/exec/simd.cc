#include "exec/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace utk {

namespace {

// -1 = unresolved; otherwise a SimdTier value. Racing first calls resolve
// to the same value, so the relaxed publish is benign.
std::atomic<int> g_tier{-1};

bool EqualsIgnoreCase(const char* a, const char* b) {
  for (; *a != '\0' && *b != '\0'; ++a, ++b) {
    const char ca = *a >= 'A' && *a <= 'Z' ? *a - 'A' + 'a' : *a;
    if (ca != *b) return false;
  }
  return *a == '\0' && *b == '\0';
}

SimdTier Clamp(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return SimdTier::kScalar;
    case SimdTier::kAvx2:
      return BestSupportedSimdTier() == SimdTier::kAvx2 ? SimdTier::kAvx2
                                                        : SimdTier::kScalar;
  }
  return SimdTier::kScalar;
}

SimdTier ResolveFromEnv() {
  const char* env = std::getenv("UTK_SIMD");
  if (env == nullptr || *env == '\0') return BestSupportedSimdTier();
  if (EqualsIgnoreCase(env, "0") || EqualsIgnoreCase(env, "off") ||
      EqualsIgnoreCase(env, "scalar"))
    return SimdTier::kScalar;
  if (EqualsIgnoreCase(env, "avx2")) return Clamp(SimdTier::kAvx2);
  // "1" / "on" / "auto" / anything unrecognized: best supported.
  return BestSupportedSimdTier();
}

}  // namespace

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
  }
  return "scalar";
}

SimdTier BestSupportedSimdTier() {
#if UTK_SIMD_X86
  return __builtin_cpu_supports("avx2") ? SimdTier::kAvx2 : SimdTier::kScalar;
#else
  return SimdTier::kScalar;
#endif
}

SimdTier ActiveSimdTier() {
  int tier = g_tier.load(std::memory_order_acquire);
  if (tier < 0) {
    tier = static_cast<int>(ResolveFromEnv());
    g_tier.store(tier, std::memory_order_release);
  }
  return static_cast<SimdTier>(tier);
}

void SetSimdTier(SimdTier tier) {
  g_tier.store(static_cast<int>(Clamp(tier)), std::memory_order_release);
}

}  // namespace utk
