#include "core/validate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "api/engine.h"
#include "data/generator.h"

namespace utk {
namespace {

TEST(Validate, GoodDatasetPasses) {
  Dataset data = Generate(Distribution::kIndependent, 50, 3, 1);
  EXPECT_FALSE(ValidateDataset(data).has_value());
}

TEST(Validate, EmptyDataset) {
  EXPECT_TRUE(ValidateDataset({}).has_value());
}

TEST(Validate, OneDimensionalRecords) {
  Dataset data;
  Record r;
  r.id = 0;
  r.attrs = {1.0};
  data.push_back(r);
  auto err = ValidateDataset(data);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("2 attributes"), std::string::npos);
}

TEST(Validate, MisnumberedIds) {
  Dataset data = Generate(Distribution::kIndependent, 5, 3, 2);
  data[3].id = 7;
  auto err = ValidateDataset(data);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("position 3"), std::string::npos);
}

TEST(Validate, RaggedDimensions) {
  Dataset data = Generate(Distribution::kIndependent, 5, 3, 3);
  data[2].attrs.push_back(0.5);
  EXPECT_TRUE(ValidateDataset(data).has_value());
}

TEST(Validate, NonFiniteAttribute) {
  Dataset data = Generate(Distribution::kIndependent, 5, 3, 4);
  data[1].attrs[0] = std::nan("");
  auto err = ValidateDataset(data);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("not finite"), std::string::npos);
  data[1].attrs[0] = std::numeric_limits<Scalar>::infinity();
  EXPECT_TRUE(ValidateDataset(data).has_value());
}

// The per-query rules, as QueryEngine::Validate applies them.

QuerySpec Utk1Spec(ConvexRegion region, int k) {
  QuerySpec spec;
  spec.k = k;
  spec.region = std::move(region);
  return spec;
}

TEST(Validate, GoodQueryPasses) {
  Engine engine(Generate(Distribution::kIndependent, 20, 3, 5));
  ConvexRegion region = ConvexRegion::FromBox({0.1, 0.1}, {0.2, 0.2});
  EXPECT_FALSE(engine.Validate(Utk1Spec(region, 3)).has_value());
}

TEST(Validate, BadK) {
  Engine engine(Generate(Distribution::kIndependent, 20, 3, 6));
  ConvexRegion region = ConvexRegion::FromBox({0.1, 0.1}, {0.2, 0.2});
  EXPECT_TRUE(engine.Validate(Utk1Spec(region, 0)).has_value());
  EXPECT_TRUE(engine.Validate(Utk1Spec(region, -3)).has_value());
}

TEST(Validate, DimensionMismatch) {
  Engine engine(Generate(Distribution::kIndependent, 20, 4, 7));
  ConvexRegion region = ConvexRegion::FromBox({0.1, 0.1}, {0.2, 0.2});  // 2D
  auto err = engine.Validate(Utk1Spec(region, 3));
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("preference dims"), std::string::npos);
}

TEST(Validate, RegionOutsideSimplex) {
  Engine engine(Generate(Distribution::kIndependent, 20, 3, 8));
  // Box with weights summing > 1 everywhere: no valid preference inside.
  ConvexRegion region = ConvexRegion::FromBox({0.7, 0.7}, {0.9, 0.9});
  auto err = engine.Validate(Utk1Spec(region, 3));
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("interior"), std::string::npos);
}

TEST(Validate, DegenerateRegion) {
  Engine engine(Generate(Distribution::kIndependent, 20, 3, 9));
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.2, 0.3});
  EXPECT_TRUE(engine.Validate(Utk1Spec(region, 3)).has_value());
}

}  // namespace
}  // namespace utk
