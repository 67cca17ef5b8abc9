// ChunkedEdgeListReader + extract_dk_streaming: the streaming file
// pipeline must hand out exactly the edges read_edge_list parses —
// across any chunk/buffer geometry, including lines split mid-number —
// and the assembled extraction must equal the in-memory pipeline on the
// checked-in fixture and on written random graphs, malformed-line and
// duplicate-edge behavior included.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/series.hpp"
#include "io/chunked_edge_reader.hpp"
#include "io/edge_list.hpp"
#include "graph/builders.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace orbis::io {
namespace {

std::string data_dir() {
  const char* dir = std::getenv("ORBIS_TEST_DATA_DIR");
  return dir != nullptr ? dir : "tests/data";
}

std::string fixture_path() { return data_dir() + "/fixture.edges"; }

/// Writes content to a fresh temp file and returns its path.
std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << content;
  return path;
}

std::vector<RawEdge> collect_edges(const std::string& path,
                                   ChunkedEdgeListReader::Options options) {
  ChunkedEdgeListReader reader(path, options);
  std::vector<RawEdge> edges;
  reader.run_pass([&](std::span<const RawEdge> chunk) {
    edges.insert(edges.end(), chunk.begin(), chunk.end());
  });
  return edges;
}

TEST(ChunkedEdgeReader, ChunkGeometryDoesNotChangeTheEdgeStream) {
  const auto reference =
      collect_edges(fixture_path(), ChunkedEdgeListReader::Options{});
  ASSERT_EQ(reference.size(), 30u);
  // Pathological geometries: 7-byte reads split lines mid-number; 1- and
  // 3-edge chunks exercise every flush path.
  for (const std::size_t buffer_bytes : {7ull, 16ull, 1024ull}) {
    for (const std::size_t chunk_edges : {1ull, 3ull, 4096ull}) {
      const auto edges = collect_edges(
          fixture_path(),
          ChunkedEdgeListReader::Options{.buffer_bytes = buffer_bytes,
                                         .chunk_edges = chunk_edges});
      ASSERT_EQ(edges.size(), reference.size());
      for (std::size_t i = 0; i < edges.size(); ++i) {
        EXPECT_EQ(edges[i].u, reference[i].u);
        EXPECT_EQ(edges[i].v, reference[i].v);
      }
    }
  }
}

TEST(ChunkedEdgeReader, RecognizesTheWriterHeader) {
  ChunkedEdgeListReader reader(fixture_path());
  reader.run_pass([](std::span<const RawEdge>) {});
  EXPECT_EQ(reader.declared_nodes(), 16u);
}

TEST(ChunkedEdgeReader, HandlesMissingTrailingNewline) {
  const std::string path =
      write_temp("orbis_chunked_no_newline.txt", "0 1\n1 2");
  const auto edges = collect_edges(path, ChunkedEdgeListReader::Options{});
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[1].u, 1u);
  EXPECT_EQ(edges[1].v, 2u);
  std::remove(path.c_str());
}

TEST(ChunkedEdgeReader, MalformedLinesMatchTheInMemoryReader) {
  // Identical grammar: both readers throw std::invalid_argument naming
  // the same line for the same inputs.
  const struct {
    const char* content;
    const char* line_tag;
  } cases[] = {
      {"0 1\nnot numbers\n", "line 2"},
      {"0\n", "line 1"},
      {"0 1 2\n", "line 1"},
      {"0 1\n\n# comment\n3 x\n", "line 4"},
  };
  for (const auto& c : cases) {
    const std::string path = write_temp("orbis_chunked_bad.txt", c.content);
    try {
      collect_edges(path, ChunkedEdgeListReader::Options{});
      FAIL() << "expected std::invalid_argument for: " << c.content;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.line_tag), std::string::npos)
          << e.what();
    }
    std::istringstream in(c.content);
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
    std::remove(path.c_str());
  }
}

TEST(ChunkedEdgeReader, MissingFileThrows) {
  ChunkedEdgeListReader reader("/nonexistent/path/graph.txt");
  EXPECT_THROW(reader.run_pass([](std::span<const RawEdge>) {}),
               std::runtime_error);
}

void expect_streaming_equals_in_memory(const std::string& path, int max_d,
                                       const StreamingExtractOptions& options =
                                           StreamingExtractOptions{}) {
  const auto read = read_edge_list_file(path);
  const auto expected = dk::extract(read.graph, max_d);
  const auto streamed = extract_dk_streaming(path, max_d, options);
  EXPECT_EQ(streamed.distributions.num_nodes, expected.num_nodes);
  EXPECT_EQ(streamed.distributions.num_edges, expected.num_edges);
  EXPECT_DOUBLE_EQ(streamed.distributions.average_degree,
                   expected.average_degree);
  EXPECT_TRUE(streamed.distributions.degree == expected.degree);
  if (max_d >= 2) {
    EXPECT_TRUE(streamed.distributions.joint == expected.joint);
  }
  if (max_d >= 3) {
    EXPECT_TRUE(streamed.distributions.three_k == expected.three_k);
  }
  EXPECT_EQ(streamed.skipped_self_loops, read.skipped_self_loops);
  EXPECT_EQ(streamed.skipped_duplicates, read.skipped_duplicates);
}

TEST(StreamingExtractPipeline, FixtureRoundTripAllLevels) {
  for (int d = 1; d <= 3; ++d) {
    expect_streaming_equals_in_memory(fixture_path(), d);
  }
}

TEST(StreamingExtractPipeline, FixtureRoundTripWithTinyChunks) {
  StreamingExtractOptions options;
  options.reader.buffer_bytes = 11;
  options.reader.chunk_edges = 2;
  expect_streaming_equals_in_memory(fixture_path(), 3, options);
}

TEST(StreamingExtractPipeline, WrittenRandomGraphsRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    util::Rng rng(seed);
    const Graph g = builders::gnm(120, 360, rng);
    const std::string path =
        testing::TempDir() + "orbis_streaming_roundtrip.edges";
    write_edge_list_file(path, g);
    for (int d = 1; d <= 3; ++d) {
      expect_streaming_equals_in_memory(path, d);
    }
    std::remove(path.c_str());
  }
}

TEST(StreamingExtractPipeline, PeakFootprintSeesTheThreeKAccumulators) {
  // The wedge/triangle histograms and the CSR exist only between pass 1
  // and finish(), so the reported peak at level 3 must strictly exceed
  // the level-2 peak of the same file.
  const auto level2 = extract_dk_streaming(fixture_path(), 2);
  const auto level3 = extract_dk_streaming(fixture_path(), 3);
  EXPECT_GT(level2.peak_accumulator_bytes, 0u);
  EXPECT_GT(level3.peak_accumulator_bytes, level2.peak_accumulator_bytes);
}

TEST(StreamingExtractPipeline, DuplicateAndLoopHandlingMatches) {
  const std::string path = write_temp(
      "orbis_streaming_dups.edges",
      "# no header, sparse ids\n"
      "5 5\n"
      "5 9\n"
      "9 5\n"
      "12 9\n"
      "5 9\n"
      "12 5\n");
  expect_streaming_equals_in_memory(path, 3);
  const auto streamed = extract_dk_streaming(path, 3);
  EXPECT_EQ(streamed.skipped_self_loops, 1u);
  EXPECT_EQ(streamed.skipped_duplicates, 2u);
  EXPECT_EQ(streamed.distributions.num_edges, 3u);
  EXPECT_EQ(streamed.distributions.three_k.total_triangles(), 1);
  std::remove(path.c_str());
}

TEST(StreamingExtractPipeline, ExtremeAndSparseIdsReadTheSameEverywhere) {
  // File ids span the whole uint64 range: 0 and 2^64 - 1 are ordinary
  // ids to the interner, in both readers and in the extractor.
  const std::string content =
      "0 18446744073709551615\n"
      "18446744073709551615 7000000000\n"
      "7000000000 0\n"
      "42 0\n"
      "0 0\n"
      "7000000000 18446744073709551615\n";
  const std::string path = write_temp("orbis_extreme_ids.edges", content);
  std::istringstream in(content);
  const auto from_stream = read_edge_list(in);
  const auto from_file = read_edge_list_file(path);
  const std::vector<std::uint64_t> first_appearance = {
      0, 18446744073709551615ull, 7000000000ull, 42};
  EXPECT_EQ(from_stream.original_ids, first_appearance);
  EXPECT_EQ(from_file.original_ids, first_appearance);
  EXPECT_EQ(from_stream.graph.edges(), from_file.graph.edges());
  EXPECT_EQ(from_file.graph.num_edges(), 4u);
  EXPECT_EQ(from_file.skipped_self_loops, 1u);
  EXPECT_EQ(from_file.skipped_duplicates, 1u);
  expect_streaming_equals_in_memory(path, 3);
  std::remove(path.c_str());
}

TEST(ChunkedEdgeReader, DeclaredNodeCountIsBoundedByTheNodeIdRange) {
  // 2^32 - 1 is the largest count a NodeId graph can hold; the header
  // parse alone holds it (no reader is asked to build that graph).
  const std::string largest =
      write_temp("orbis_header_max.edges",
                 "# orbis edge list: 4294967295 nodes, 0 edges\n");
  ChunkedEdgeListReader reader(largest);
  reader.run_pass([](std::span<const RawEdge>) {});
  EXPECT_EQ(reader.declared_nodes(), 4294967295u);
  std::remove(largest.c_str());

  for (const char* count : {"4294967296", "18446744073709551615",
                            "99999999999999999999999"}) {
    const std::string content = std::string("0 1\n# orbis edge list: ") +
                                count + " nodes, 1 edges\n";
    const std::string path = write_temp("orbis_header_huge.edges", content);
    const auto expect_line_2 = [&](const auto& read) {
      try {
        read();
        FAIL() << "expected ParseError for count " << count;
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
      }
    };
    expect_line_2([&] {
      std::istringstream in(content);
      read_edge_list(in);
    });
    expect_line_2([&] { read_edge_list_file(path); });
    expect_line_2([&] { extract_dk_streaming(path, 3); });
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace orbis::io
