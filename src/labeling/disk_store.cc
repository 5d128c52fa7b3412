#include "src/labeling/disk_store.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/util/durable_file.h"
#include "src/util/timer.h"

namespace kosr {
namespace {

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T ReadPod(std::istream& in) {
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("truncated disk store stream");
  return value;
}

std::vector<LabelEntry> ReadLabels(std::istream& in) {
  uint64_t size = ReadPod<uint64_t>(in);
  std::vector<LabelEntry> labels(size);
  in.read(reinterpret_cast<char*>(labels.data()),
          static_cast<std::streamsize>(size * sizeof(LabelEntry)));
  if (!in) throw std::runtime_error("truncated disk store stream");
  return labels;
}

}  // namespace

void DiskLabelStore::Write(const std::string& dir, const HubLabeling& labeling,
                           const CategoryTable& categories) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  uint32_t n = labeling.num_vertices();

  // Each file is written to a temp sibling and atomically renamed into
  // place, meta.bin last: meta holds the offset tables, so a reader that
  // sees the new meta also sees the matching data files, and a crash
  // mid-write leaves the previous store intact.

  // labels.bin + offset table.
  std::vector<uint64_t> label_offsets(2 * static_cast<size_t>(n));
  std::vector<LabelEntry> scratch;
  {
    AtomicFileWriter writer(dir + "/labels.bin");
    std::ostream& out = writer.stream();
    for (VertexId v = 0; v < n; ++v) {
      label_offsets[2 * v] = static_cast<uint64_t>(out.tellp());
      WriteLabelRun(out, labeling.InRun(v), scratch);
      label_offsets[2 * v + 1] = static_cast<uint64_t>(out.tellp());
      WriteLabelRun(out, labeling.OutRun(v), scratch);
    }
    writer.Commit();
  }

  // categories.bin: per category, members' Lout labels + inverted index.
  std::vector<uint64_t> category_offsets(categories.num_categories());
  {
    AtomicFileWriter writer(dir + "/categories.bin");
    std::ostream& out = writer.stream();
    for (CategoryId c = 0; c < categories.num_categories(); ++c) {
      category_offsets[c] = static_cast<uint64_t>(out.tellp());
      auto members = categories.Members(c);
      WritePod<uint64_t>(out, members.size());
      for (VertexId m : members) {
        WritePod<VertexId>(out, m);
        WriteLabelRun(out, labeling.OutRun(m), scratch);
      }
      InvertedLabelIndex index = InvertedLabelIndex::Build(labeling, members);
      index.Serialize(out);
    }
    writer.Commit();
  }

  // meta.bin: universe, hub order, offset tables.
  AtomicFileWriter writer(dir + "/meta.bin");
  std::ostream& out = writer.stream();
  WritePod<uint32_t>(out, n);
  WritePod<uint32_t>(out, categories.num_categories());
  for (uint32_t r = 0; r < n; ++r) {
    WritePod<VertexId>(out, labeling.HubVertex(r));
  }
  for (uint64_t off : label_offsets) WritePod<uint64_t>(out, off);
  for (uint64_t off : category_offsets) WritePod<uint64_t>(out, off);
  writer.Commit();
}

DiskLabelStore::DiskLabelStore(const std::string& dir) : dir_(dir) {
  std::ifstream in(dir + "/meta.bin", std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + dir + "/meta.bin");
  num_vertices_ = ReadPod<uint32_t>(in);
  uint32_t num_categories = ReadPod<uint32_t>(in);
  order_.resize(num_vertices_);
  for (uint32_t r = 0; r < num_vertices_; ++r) {
    order_[r] = ReadPod<VertexId>(in);
  }
  label_offsets_.resize(2 * static_cast<size_t>(num_vertices_));
  for (uint64_t& off : label_offsets_) off = ReadPod<uint64_t>(in);
  category_offsets_.resize(num_categories);
  for (uint64_t& off : category_offsets_) off = ReadPod<uint64_t>(in);
}

DiskLabelStore::QueryContext DiskLabelStore::Load(
    VertexId s, VertexId t, const CategorySequence& sequence) const {
  WallTimer timer;
  QueryContext ctx;
  std::vector<std::vector<LabelEntry>> in_labels(num_vertices_);
  std::vector<std::vector<LabelEntry>> out_labels(num_vertices_);

  std::ifstream cats(dir_ + "/categories.bin", std::ios::binary);
  if (!cats) throw std::runtime_error("cannot open categories.bin");
  for (CategoryId c : sequence) {
    cats.seekg(static_cast<std::streamoff>(category_offsets_.at(c)));
    ++ctx.disk_seeks;
    uint64_t member_count = ReadPod<uint64_t>(cats);
    for (uint64_t i = 0; i < member_count; ++i) {
      VertexId m = ReadPod<VertexId>(cats);
      out_labels[m] = ReadLabels(cats);
    }
    ctx.slot_indexes.push_back(
        InvertedLabelIndex::Deserialize(cats, num_vertices_));
  }

  std::ifstream labels(dir_ + "/labels.bin", std::ios::binary);
  if (!labels) throw std::runtime_error("cannot open labels.bin");
  // Source: Lout(s).
  labels.seekg(static_cast<std::streamoff>(label_offsets_[2 * s + 1]));
  ++ctx.disk_seeks;
  out_labels[s] = ReadLabels(labels);
  // Destination: Lin(t).
  labels.seekg(static_cast<std::streamoff>(label_offsets_[2 * t]));
  ++ctx.disk_seeks;
  in_labels[t] = ReadLabels(labels);

  ctx.labeling = HubLabeling::FromParts(order_, std::move(in_labels),
                                        std::move(out_labels));
  ctx.load_seconds = timer.ElapsedSeconds();
  return ctx;
}

}  // namespace kosr
