// read_star: the serving path for reads, with the sync layer bypassed.
// bookworm starts from a generated catalogue of books and reviews, deployed
// on a star of 4 edges. One op is a read at a rotating edge: 10% /book, 10%
// /books, 60% /reviews, 20% /recommend. No writes and no sync rounds happen
// after set-up. Every answer is checked against the generated catalogue:
// years and ratings are distinct, so every expected answer is unique.
//
// The four kinds take about 0.05, 0.08, 0.13 and 0.17 ms. With a uniform
// mix the median fell between the /books and /reviews clusters and moved
// 20% between runs; with these weights op_ms.p50 falls in the middle of
// the /reviews cluster and op_ms.p90 in the middle of the /recommend one.
#include <algorithm>
#include <map>
#include <stdexcept>

#include "apps/app.h"
#include "common.h"
#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"
#include "stages.h"

namespace perfbench {

using namespace edgstr;

namespace {

constexpr int kEdges = 4;
constexpr int kBooks = 1000;
constexpr int kReviews = 5000;
constexpr int kReads = 10000;  ///< ops per round
constexpr int kFirstId = 5;    ///< bookworm's own init inserts ids 1..4
constexpr int kFirstYear = 2000;
constexpr int kRecentSpan = 20;  ///< /books asks for books of the last ~20 years

struct Book {
  int id = 0;
  std::string title, author;
  int year = 0, rating = 0;
};
struct Review {
  int stars = 0;
  std::string text;
};

enum class Kind { kBook, kReviews, kBooks, kRecommend };
struct Read {
  Kind kind;
  int arg;
};

struct Catalogue {
  std::string source;  ///< bookworm with the catalogue appended to its init
  std::vector<Book> books;
  std::map<int, std::vector<Review>> reviews;  ///< by book id
  std::vector<Read> reads;
};

Catalogue generate(std::uint64_t seed, bool quick) {
  Gen gen(seed * 0x9e3779b97f4a7c15ULL + 7);
  Catalogue c;
  const int n_books = quick ? 50 : kBooks;
  const int n_reviews = quick ? 200 : kReviews;
  std::vector<int> years(n_books), ratings(n_books);
  for (int i = 0; i < n_books; ++i) years[i] = kFirstYear + i, ratings[i] = 100 + i;
  gen.shuffle(years);
  gen.shuffle(ratings);
  std::string init;
  for (int i = 0; i < n_books; ++i) {
    Book b{kFirstId + i, "Book " + std::to_string(i) + "-" + std::to_string(gen.range(0, 9999)),
           "Author " + std::to_string(gen.range(0, 49)), years[i], ratings[i]};
    init += "db.query(\"INSERT INTO books (id, title, author, year, rating) VALUES (" +
            std::to_string(b.id) + ", '" + b.title + "', '" + b.author + "', " +
            std::to_string(b.year) + ", " + std::to_string(b.rating) + ")\");\n";
    c.books.push_back(std::move(b));
  }
  for (int j = 0; j < n_reviews; ++j) {
    const int book = int(gen.range(kFirstId, kFirstId + n_books - 1));
    Review r{int(gen.range(1, 5)), "review " + std::to_string(j)};
    init += "db.query(\"INSERT INTO reviews (book, stars, text) VALUES (" + std::to_string(book) +
            ", " + std::to_string(r.stars) + ", '" + r.text + "')\");\n";
    c.reviews[book].push_back(std::move(r));
  }
  c.source = apps::bookworm().server_source + init;
  const int last_year = kFirstYear + n_books - 1;
  const int n_reads = quick ? 40 : kReads;
  for (int k = 0; k < n_reads; ++k) {
    const std::int64_t draw = gen.range(0, 9);
    const Kind kind = draw == 0   ? Kind::kBook
                      : draw == 1 ? Kind::kBooks
                      : draw < 8  ? Kind::kReviews
                                  : Kind::kRecommend;
    int arg = 0;
    switch (kind) {
      case Kind::kBook:
      case Kind::kReviews: arg = int(gen.range(kFirstId, kFirstId + n_books - 1)); break;
      case Kind::kBooks: arg = int(gen.range(last_year - kRecentSpan, last_year + 1)); break;
      case Kind::kRecommend: arg = int(gen.range(0, 999)); break;
    }
    c.reads.push_back({kind, arg});
  }
  return c;
}

http::HttpRequest to_request(const Read& r) {
  switch (r.kind) {
    case Kind::kBook:
      return apps::make_request({http::Verb::kGet, "/book"}, json::Value::object({{"id", r.arg}}));
    case Kind::kReviews:
      return apps::make_request({http::Verb::kGet, "/reviews"},
                                json::Value::object({{"book", r.arg}}));
    case Kind::kBooks:
      return apps::make_request({http::Verb::kGet, "/books"},
                                json::Value::object({{"minYear", r.arg}}));
    case Kind::kRecommend:
      return apps::make_request({http::Verb::kGet, "/recommend"},
                                json::Value::object({{"taste", r.arg}}));
  }
  throw std::logic_error("unknown read kind");
}

/// The SELECT the handler behind `r` runs, for timing sqldb on its own.
std::pair<std::string, std::vector<sqldb::SqlValue>> handler_sql(const Read& r) {
  switch (r.kind) {
    case Kind::kBook: return {"SELECT * FROM books WHERE id = ?", {r.arg}};
    case Kind::kReviews: return {"SELECT stars, text FROM reviews WHERE book = ?", {r.arg}};
    case Kind::kBooks:
      return {"SELECT id, title, author, year FROM books WHERE year >= ? ORDER BY year", {r.arg}};
    case Kind::kRecommend:
      return {"SELECT id, title, rating FROM books ORDER BY rating DESC LIMIT 3", {}};
  }
  throw std::logic_error("unknown read kind");
}

const char* check_name(Kind kind) {
  switch (kind) {
    case Kind::kBook: return "read.book";
    case Kind::kReviews: return "read.reviews";
    case Kind::kBooks: return "read.books";
    case Kind::kRecommend: return "read.recommend";
  }
  return "";
}

json::Value book_json(const Book& b, bool with_rating, bool with_author_year) {
  json::Object o;
  o.set("id", b.id);
  o.set("title", b.title);
  if (with_author_year) o.set("author", b.author), o.set("year", b.year);
  if (with_rating) o.set("rating", b.rating);
  return json::Value(std::move(o));
}

/// Sorts an array of {stars, text} objects by text: the reviews query has
/// no ORDER BY, so its rows compare as a multiset.
json::Value sorted_reviews(json::Array rows) {
  std::sort(rows.begin(), rows.end(), [](const json::Value& a, const json::Value& b) {
    return a.dump() < b.dump();
  });
  return json::Value(std::move(rows));
}

/// The answer the catalogue fixes for `r`.
json::Value expected_answer(const Catalogue& c, const Read& r) {
  switch (r.kind) {
    case Kind::kBook: {
      const Book& b = c.books.at(r.arg - kFirstId);
      return json::Value::object(
          {{"found", true}, {"book", book_json(b, true, true)}, {"queried", r.arg}});
    }
    case Kind::kReviews: {
      json::Array rows;
      double sum = 0;
      auto it = c.reviews.find(r.arg);
      if (it != c.reviews.end()) {
        for (const Review& rv : it->second) {
          rows.push_back(json::Value::object({{"stars", rv.stars}, {"text", rv.text}}));
          sum += rv.stars;
        }
      }
      const double avg = rows.empty() ? 0 : sum / double(rows.size());
      return json::Value::object(
          {{"book", r.arg}, {"reviews", sorted_reviews(std::move(rows))}, {"average", avg}});
    }
    case Kind::kBooks: {
      std::vector<const Book*> hits;
      for (const Book& b : c.books) {
        if (b.year >= r.arg) hits.push_back(&b);
      }
      std::sort(hits.begin(), hits.end(),
                [](const Book* a, const Book* b) { return a->year < b->year; });
      json::Array rows;
      for (const Book* b : hits) rows.push_back(book_json(*b, false, true));
      return json::Value::object({{"books", json::Value(std::move(rows))}, {"minYear", r.arg}});
    }
    case Kind::kRecommend: {
      std::vector<const Book*> top;
      for (const Book& b : c.books) top.push_back(&b);
      std::sort(top.begin(), top.end(),
                [](const Book* a, const Book* b) { return a->rating > b->rating; });
      top.resize(std::min<std::size_t>(3, top.size()));
      return json::Value::object(
          {{"recommended", book_json(*top[r.arg % top.size()], true, false)},
           {"basedOn", r.arg}});
    }
  }
  throw std::logic_error("unknown read kind");
}

/// The response body in comparable form (review rows sorted).
json::Value comparable(const Read& r, json::Value body) {
  if (r.kind != Kind::kReviews || !body.is_object()) return body;
  const json::Value* rows = body.find("reviews");
  if (!rows || !rows->is_array()) return body;
  json::Value sorted = sorted_reviews(rows->as_array());
  body.as_object().set("reviews", std::move(sorted));
  return body;
}

}  // namespace

Round read_round(const RoundContext& ctx) {
  Round round;
  const apps::SubjectApp& app = apps::bookworm();

  // ---- set-up: catalogue, transform, deployment ------------------------------
  const Clock::time_point setup_start = Clock::now();
  const Catalogue c = generate(ctx.seed, ctx.quick);
  const core::TransformResult transformed = core::Pipeline().transform(
      app.name, c.source, core::record_traffic(c.source, app.workload));
  if (!transformed.ok) throw std::runtime_error("bookworm transform failed: " + transformed.error);
  core::DeploymentConfig config;
  config.start_sync = false;
  config.seed = ctx.seed;
  config.edge_devices.assign(kEdges, cluster::DeviceProfile::rpi4());
  auto deployment = std::make_unique<core::ThreeTierDeployment>(transformed, config);
  core::ThreeTierDeployment& d = *deployment;
  if (ctx.spans) {
    for (int i = 0; i < kEdges; ++i) d.edge(i).service()->set_telemetry(&d.telemetry(), true);
  }
  round.setup_s = seconds_since(setup_start);

  // ---- timed: reads at rotating edges ----------------------------------------
  std::vector<http::HttpResponse> responses;
  responses.reserve(c.reads.size());
  const Clock::time_point run_start = Clock::now();
  for (std::size_t k = 0; k < c.reads.size(); ++k) {
    const http::HttpRequest req = to_request(c.reads[k]);
    const Clock::time_point op_start = Clock::now();
    {
      MaybeSpan span(ctx.spans, "request.read", "runtime");
      responses.push_back(d.request_sync(req, k % kEdges));
    }
    round.op_ms.push_back(seconds_since(op_start) * 1e3);
    ++round.attempted;
    if (!responses.back().ok()) ++round.failed;
  }
  round.op_wall_s = seconds_since(run_start);
  round.run_s = round.op_wall_s;

  std::uint64_t requests = 0, local = 0;
  for (int i = 0; i < kEdges; ++i) {
    requests += d.proxy(i).stats().requests;
    local += d.proxy(i).stats().served_at_edge;
  }

  // ---- traced rounds: layer counters ----------------------------------------
  if (ctx.spans) {
    LayerMetrics& m = round.layer;
    const util::MetricsRegistry& reg = d.telemetry().metrics();
    const util::Histogram* exec = reg.histogram("interp.exec.ms");
    const util::Histogram* steps = reg.histogram("interp.steps");
    m["runtime.local_ratio"] = requests ? double(local) / double(requests) : 0;
    m["minijs.exec_ms"] = exec ? exec->mean() : 0;
    m["minijs.steps_per_op"] = steps ? steps->mean() : 0;
    double response_bytes = 0;
    for (const http::HttpResponse& r : responses) response_bytes += double(r.wire_size());
    m["runtime.response_kb"] = response_bytes / 1024.0 / double(responses.size());
    sqldb::Database& db = d.edge(0).service()->database();
    const Clock::time_point sql_start = Clock::now();
    {
      MaybeSpan span(ctx.spans, "sqldb.queries", "sqldb");
      for (const Read& r : c.reads) {
        const auto [sql, params] = handler_sql(r);
        db.execute(sql, params);
      }
    }
    m["sqldb.query_ms"] = seconds_since(sql_start) * 1e3 / double(c.reads.size());
    StageTotals stages;
    replay_stages(app.name, c.source, app.workload, stages, ctx.spans);
    stage_metrics(stages, 0, m);
  }

  // ---- checks ---------------------------------------------------------------
  Checker& check = *ctx.checker;
  std::map<Kind, bool> planted_once;
  for (std::size_t k = 0; k < c.reads.size(); ++k) {
    const Read& r = c.reads[k];
    const char* name = check_name(r.kind);
    json::Value expected = expected_answer(c, r);
    if (check.planted(name) && !planted_once[r.kind]) {
      planted_once[r.kind] = true;
      expected.as_object().set("planted", true);
    }
    const json::Value got = comparable(r, responses[k].body);
    check.expect(responses[k].status == 200 && got == expected, name,
                 "read " + std::to_string(k) + ": got " + got.dump() + ", expected " +
                     expected.dump());
  }
  const std::uint64_t expected_local = c.reads.size() + (check.planted("read.edge_local") ? 1 : 0);
  check.expect(requests == c.reads.size() && local == expected_local, "read.edge_local",
               std::to_string(local) + " of " + std::to_string(requests) +
                   " reads served at the edge");

  // ---- teardown -------------------------------------------------------------
  const Clock::time_point teardown_start = Clock::now();
  deployment.reset();
  round.run_s += seconds_since(teardown_start);
  return round;
}

}  // namespace perfbench
