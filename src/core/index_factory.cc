#include "core/index_factory.h"

#include <algorithm>
#include <cctype>

#include "bitmap/bitmap_index.h"
#include "bitmap/composite_index.h"
#include "core/scan_index.h"
#include "vafile/va_file.h"

namespace incdb {

namespace {

using IndexResult = Result<std::unique_ptr<IncompleteIndex>>;

// Moves a Result<T> of a concrete index into a unique_ptr of the interface.
template <typename T>
IndexResult Wrap(Result<T> result) {
  if (!result.ok()) return result.status();
  return std::unique_ptr<IncompleteIndex>(
      std::make_unique<T>(std::move(result).value()));
}

IndexResult BuildScan(const Table& table) {
  return std::unique_ptr<IncompleteIndex>(std::make_unique<ScanIndex>(table));
}

template <BitmapEncoding kEncoding>
IndexResult BuildBitmap(const Table& table) {
  return Wrap(
      BitmapIndex::Build(table, {kEncoding, MissingStrategy::kExtraBitmap}));
}

template <VaQuantization kQuantization>
IndexResult BuildVa(const Table& table) {
  return Wrap(VaFile::Build(table, {kQuantization, 0}));
}

template <SlotScheme kScheme>
IndexResult BuildComposite(const Table& table) {
  return Wrap(CompositeBitmapIndex::Build(table, {kScheme}));
}

/// Everything incdb knows about a served kind, in one row. `name` is
/// IndexKindToString; IndexKindFromString accepts it or `alias`, ignoring
/// case. `segmentable` kinds never read the table after Build.
struct KindRow {
  IndexKind kind;
  std::string_view name;
  std::string_view alias;
  bool segmentable;
  IndexResult (*build)(const Table&);
};

constexpr KindRow kKinds[] = {
    {IndexKind::kSequentialScan, "SeqScan", "scan", false, BuildScan},
    {IndexKind::kBitmapEquality, "BEE-WAH", "bee", true,
     BuildBitmap<BitmapEncoding::kEquality>},
    {IndexKind::kBitmapRange, "BRE-WAH", "bre", true,
     BuildBitmap<BitmapEncoding::kRange>},
    {IndexKind::kBitmapInterval, "BIE-WAH", "bie", true,
     BuildBitmap<BitmapEncoding::kInterval>},
    {IndexKind::kBitmapBitSliced, "BSL-WAH", "bsl", true,
     BuildBitmap<BitmapEncoding::kBitSliced>},
    {IndexKind::kVaFile, "VA-File", "va", false,
     BuildVa<VaQuantization::kUniform>},
    {IndexKind::kVaPlusFile, "VA+-File", "va+", false,
     BuildVa<VaQuantization::kEquiDepth>},
    {IndexKind::kBitmapMultiComponent, "MC-WAH", "mc", true,
     BuildComposite<SlotScheme::kMultiComponent>},
    {IndexKind::kBitmapHierarchical, "HIER-WAH", "hier", true,
     BuildComposite<SlotScheme::kHierarchical>},
};

/// Catalog tags of retired kinds, so a store holding one fails by name.
constexpr struct {
  uint8_t tag;
  std::string_view name;
} kRetiredTags[] = {{7, "MOSAIC"}, {8, "bitstring-augmented"}};

const KindRow* FindRow(IndexKind kind) {
  for (const KindRow& row : kKinds) {
    if (row.kind == kind) return &row;
  }
  return nullptr;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](unsigned char x, unsigned char y) {
                      return std::tolower(x) == std::tolower(y);
                    });
}

}  // namespace

std::string_view IndexKindToString(IndexKind kind) {
  const KindRow* row = FindRow(kind);
  return row != nullptr ? row->name : "unknown";
}

Result<IndexKind> IndexKindFromString(std::string_view name) {
  std::string valid;
  for (const KindRow& row : kKinds) {
    if (EqualsIgnoreCase(name, row.name) || EqualsIgnoreCase(name, row.alias)) {
      return row.kind;
    }
    if (!valid.empty()) valid += ", ";
    valid += row.alias;
  }
  return Status::InvalidArgument("unknown index kind '" + std::string(name) +
                                 "'; valid kinds: " + valid);
}

Result<IndexKind> IndexKindFromTag(uint8_t tag) {
  for (const KindRow& row : kKinds) {
    if (static_cast<uint8_t>(row.kind) == tag) return row.kind;
  }
  for (const auto& retired : kRetiredTags) {
    if (retired.tag == tag) {
      return Status::NotSupported(
          "index kind tag " + std::to_string(tag) + " is the retired " +
          std::string(retired.name) + " kind, which incdb no longer serves");
    }
  }
  return Status::InvalidArgument("unknown index kind tag " +
                                 std::to_string(tag));
}

bool IsSegmentIndexKind(IndexKind kind) {
  const KindRow* row = FindRow(kind);
  return row != nullptr && row->segmentable;
}

Result<std::unique_ptr<IncompleteIndex>> CreateIndex(IndexKind kind,
                                                     const Table& table) {
  const KindRow* row = FindRow(kind);
  if (row == nullptr) return Status::InvalidArgument("unknown index kind");
  return row->build(table);
}

}  // namespace incdb
