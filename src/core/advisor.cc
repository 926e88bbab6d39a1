#include "core/advisor.h"

#include <algorithm>
#include <cmath>

#include "bitmap/slicer.h"
#include "common/bitutil.h"
#include "stats/wah_model.h"

namespace incdb {

IndexAdvisor::IndexAdvisor(const Table& table) : num_rows_(table.num_rows()) {
  histograms_.reserve(table.num_attributes());
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    histograms_.push_back(AttributeHistogram::FromColumn(table.column(a)));
  }
}

double IndexAdvisor::AvgTermWidth(const WorkloadProfile& profile,
                                  size_t attr) const {
  if (profile.point_queries) return 1.0;
  const double cardinality =
      static_cast<double>(histograms_[attr].cardinality());
  return std::clamp(std::round(profile.attribute_selectivity * cardinality),
                    1.0, cardinality);
}

IndexCostEstimate IndexAdvisor::Estimate(IndexKind kind,
                                         const WorkloadProfile& profile) const {
  IndexCostEstimate estimate;
  estimate.kind = kind;
  const double n = static_cast<double>(num_rows_);
  const size_t dims = std::min(profile.dims, histograms_.size());
  // Result-fold cost shared by the bitmap kinds: one AND per extra dim over
  // a (usually sparse) intermediate — approximate by one bitmap's words at
  // the query's global density; keep it simple with n/31 * 0.25.
  const double fold_cost = dims > 1 ? (n / 31.0) * 0.25 * (dims - 1) : 0.0;

  switch (kind) {
    case IndexKind::kSequentialScan: {
      estimate.size_bytes = 0.0;
      // Reads every cell of every search-key attribute: 16 values/64B line.
      estimate.query_cost = n * static_cast<double>(dims) / 2.0;
      return estimate;
    }

    case IndexKind::kBitmapEquality: {
      double size = 0.0;
      double per_dim_cost = 0.0;
      for (size_t a = 0; a < histograms_.size(); ++a) {
        const AttributeHistogram& hist = histograms_[a];
        double attr_bytes = 0.0;
        double avg_value_words = 0.0;
        for (uint32_t v = 1; v <= hist.cardinality(); ++v) {
          const double bytes =
              ExpectedWahBytes(num_rows_, hist.BitDensity(v));
          attr_bytes += bytes;
          avg_value_words += bytes / 4.0;
        }
        avg_value_words /= std::max<double>(1.0, hist.cardinality());
        const double missing_words =
            hist.missing_count() > 0
                ? ExpectedWahWords(num_rows_, hist.MissingRate())
                : 0.0;
        if (hist.missing_count() > 0) {
          attr_bytes += ExpectedWahBytes(num_rows_, hist.MissingRate());
        }
        size += attr_bytes;
        // Fig. 2 access count: min(w, C-w) + 1 bitmaps.
        const double width = AvgTermWidth(profile, a);
        const double accessed = std::min(
            width, static_cast<double>(hist.cardinality()) - width) + 1.0;
        per_dim_cost +=
            std::max(1.0, accessed) * avg_value_words + missing_words;
      }
      estimate.size_bytes = size;
      estimate.query_cost =
          per_dim_cost / std::max<size_t>(1, histograms_.size()) *
              static_cast<double>(dims) + fold_cost;
      return estimate;
    }

    case IndexKind::kBitmapRange: {
      double size = 0.0;
      double per_dim_cost = 0.0;
      for (size_t a = 0; a < histograms_.size(); ++a) {
        const AttributeHistogram& hist = histograms_[a];
        // B_j density = cumulative frequency through j plus missing.
        double cumulative = static_cast<double>(hist.missing_count());
        double attr_bytes = 0.0;
        double worst_words = 1.0;
        for (uint32_t j = 1; j + 1 <= hist.cardinality(); ++j) {
          cumulative += static_cast<double>(hist.count(j));
          const double density = cumulative / std::max(1.0, n);
          attr_bytes += ExpectedWahBytes(num_rows_, density);
          worst_words =
              std::max(worst_words, ExpectedWahWords(num_rows_, density));
        }
        if (hist.missing_count() > 0) {
          attr_bytes += ExpectedWahBytes(num_rows_, hist.MissingRate());
        }
        size += attr_bytes;
        // Fig. 3: between 1 and 3 bitvectors per dimension.
        per_dim_cost += 2.5 * worst_words;
      }
      estimate.size_bytes = size;
      estimate.query_cost =
          per_dim_cost / std::max<size_t>(1, histograms_.size()) *
              static_cast<double>(dims) + fold_cost;
      return estimate;
    }

    case IndexKind::kBitmapInterval: {
      double size = 0.0;
      double per_dim_cost = 0.0;
      for (size_t a = 0; a < histograms_.size(); ++a) {
        const AttributeHistogram& hist = histograms_[a];
        const uint32_t cardinality = hist.cardinality();
        const uint32_t m = (cardinality + 1) / 2;
        const uint32_t windows = cardinality - m + 1;
        double window_words = 0.0;
        for (uint32_t j = 1; j <= windows; ++j) {
          double mass = 0.0;
          for (uint32_t v = j; v <= std::min(cardinality, j + m - 1); ++v) {
            mass += static_cast<double>(hist.count(v));
          }
          const double density = mass / std::max(1.0, n);
          size += ExpectedWahBytes(num_rows_, density);
          window_words += ExpectedWahWords(num_rows_, density);
        }
        if (hist.missing_count() > 0) {
          size += ExpectedWahBytes(num_rows_, hist.MissingRate());
        }
        // Two window bitmaps (+ missing) per dimension.
        per_dim_cost += 2.0 * window_words / std::max<double>(1.0, windows) +
                        (hist.missing_count() > 0
                             ? ExpectedWahWords(num_rows_, hist.MissingRate())
                             : 0.0);
      }
      estimate.size_bytes = size;
      estimate.query_cost =
          per_dim_cost / std::max<size_t>(1, histograms_.size()) *
              static_cast<double>(dims) + fold_cost;
      return estimate;
    }

    case IndexKind::kBitmapBitSliced: {
      double size = 0.0;
      double per_dim_cost = 0.0;
      for (size_t a = 0; a < histograms_.size(); ++a) {
        const AttributeHistogram& hist = histograms_[a];
        const int slices = bitutil::BitsForCardinality(hist.cardinality());
        for (int k = 0; k < slices; ++k) {
          double mass = 0.0;
          for (uint32_t v = 1; v <= hist.cardinality(); ++v) {
            if ((v >> k) & 1) mass += static_cast<double>(hist.count(v));
          }
          const double density = mass / std::max(1.0, n);
          size += ExpectedWahBytes(num_rows_, density);
          // LE circuit touches each slice once or twice with ~3 ops; two
          // LE circuits per range term.
          per_dim_cost += 2.0 * 3.0 * ExpectedWahWords(num_rows_, density);
        }
        if (hist.missing_count() > 0) {
          size += ExpectedWahBytes(num_rows_, hist.MissingRate());
        }
      }
      estimate.size_bytes = size;
      estimate.query_cost =
          per_dim_cost / std::max<size_t>(1, histograms_.size()) *
              static_cast<double>(dims) + fold_cost;
      return estimate;
    }

    case IndexKind::kBitmapMultiComponent:
    case IndexKind::kBitmapHierarchical: {
      // Composite kinds: size and probe counts follow from the slicer
      // geometry (axes/levels), not from the raw cardinality.
      const SlotScheme scheme = kind == IndexKind::kBitmapMultiComponent
                                    ? SlotScheme::kMultiComponent
                                    : SlotScheme::kHierarchical;
      double size = 0.0;
      double per_dim_cost = 0.0;
      for (size_t a = 0; a < histograms_.size(); ++a) {
        const AttributeHistogram& hist = histograms_[a];
        const Result<Slicer> sliced = Slicer::Create(scheme,
                                                     hist.cardinality());
        if (!sliced.ok()) continue;
        const Slicer& slicer = sliced.value();
        double avg_words = 0.0;
        double bitmap_count = 0.0;
        for (size_t axis = 0; axis < slicer.axes().size(); ++axis) {
          const uint32_t slots = slicer.axes()[axis].num_slots;
          std::vector<double> mass(slots, 0.0);
          for (uint32_t v = 1; v <= hist.cardinality(); ++v) {
            mass[slicer.SlotOf(v, axis)] += static_cast<double>(hist.count(v));
          }
          for (uint32_t s = 0; s < slots; ++s) {
            const double density = mass[s] / std::max(1.0, n);
            size += ExpectedWahBytes(num_rows_, density);
            avg_words += ExpectedWahWords(num_rows_, density);
            bitmap_count += 1.0;
          }
        }
        avg_words /= std::max(1.0, bitmap_count);
        const double missing_words =
            hist.missing_count() > 0
                ? ExpectedWahWords(num_rows_, hist.MissingRate())
                : 0.0;
        if (hist.missing_count() > 0) {
          size += ExpectedWahBytes(num_rows_, hist.MissingRate());
        }
        const double width = AvgTermWidth(profile, a);
        double probes = 0.0;
        if (scheme == SlotScheme::kMultiComponent) {
          // Two edge digit-ranges on the low axis (the equality min-side
          // trick bounds each at r0/2 + 1) plus one aligned digit-range on
          // the high axis.
          const double r0 =
              static_cast<double>(slicer.axes().front().num_slots);
          const double r1 =
              static_cast<double>(slicer.axes().back().num_slots);
          const double mid = std::clamp(width / std::max(1.0, r0), 0.0, r1);
          probes = 2.0 * std::min(width, r0 / 2.0 + 1.0) +
                   std::min(mid, r1 - mid) + 1.0;
        } else {
          // Segment-tree cover: <= 2 aligned bins per level, ~2 log2(w)
          // bins total for a width-w range.
          const double levels = static_cast<double>(slicer.axes().size());
          probes = std::min(2.0 * levels,
                            2.0 * std::log2(std::max(2.0, width)) + 1.0);
        }
        per_dim_cost += probes * avg_words + missing_words;
      }
      estimate.size_bytes = size;
      estimate.query_cost =
          per_dim_cost / std::max<size_t>(1, histograms_.size()) *
              static_cast<double>(dims) + fold_cost;
      return estimate;
    }

    case IndexKind::kVaFile:
    case IndexKind::kVaPlusFile: {
      double stride_bits = 0.0;
      for (const AttributeHistogram& hist : histograms_) {
        stride_bits += bitutil::BitsForCardinality(hist.cardinality());
      }
      estimate.size_bytes = n * stride_bits / 8.0;
      // The filter visits every record; per record it extracts and checks
      // up to `dims` codes with early exit (~sublinear in dims in
      // practice). Calibrated against the Fig. 5 measurements, where the
      // VA-file lands just below the sequential scan.
      estimate.query_cost = n * (0.3 + 0.3 * static_cast<double>(dims));
      return estimate;
    }
  }
  return estimate;
}

std::vector<IndexCostEstimate> IndexAdvisor::Rank(
    const WorkloadProfile& profile, double memory_budget_bytes) const {
  std::vector<IndexCostEstimate> ranked;
  for (IndexKind kind :
       {IndexKind::kSequentialScan, IndexKind::kBitmapEquality,
        IndexKind::kBitmapRange, IndexKind::kBitmapInterval,
        IndexKind::kBitmapBitSliced, IndexKind::kBitmapMultiComponent,
        IndexKind::kBitmapHierarchical, IndexKind::kVaFile}) {
    const IndexCostEstimate estimate = Estimate(kind, profile);
    if (estimate.size_bytes <= memory_budget_bytes) ranked.push_back(estimate);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const IndexCostEstimate& a, const IndexCostEstimate& b) {
                     return a.query_cost < b.query_cost;
                   });
  return ranked;
}

IndexKind IndexAdvisor::Recommend(const WorkloadProfile& profile,
                                  double memory_budget_bytes) const {
  const std::vector<IndexCostEstimate> ranked =
      Rank(profile, memory_budget_bytes);
  // The scan has size 0 and always qualifies, so ranked is never empty.
  return ranked.front().kind;
}

}  // namespace incdb
