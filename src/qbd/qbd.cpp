#include "qbd/qbd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <utility>

#include "linalg/gth.hpp"
#include "markov/scc.hpp"
#include "util/error.hpp"

namespace gs::qbd {

namespace {

// `items`, which come in contiguous runs (run k is items[starts[k],
// starts[k+1]); the last entry of `starts` is items.size()), reordered so
// that kLanes consecutive runs advance in turn, one item each, every run
// keeping its own order.
template <class T>
std::vector<T> interleave(const std::vector<T>& items,
                          const std::vector<std::uint32_t>& starts) {
  constexpr std::size_t kLanes = 4;
  std::vector<T> out;
  out.reserve(items.size());
  const std::size_t runs = starts.size() - 1;
  for (std::size_t r0 = 0; r0 < runs; r0 += kLanes) {
    const std::size_t r1 = std::min(runs, r0 + kLanes);
    for (std::uint32_t step = 0;; ++step) {
      bool any = false;
      for (std::size_t r = r0; r < r1; ++r) {
        if (starts[r] + step >= starts[r + 1]) continue;
        out.push_back(items[starts[r] + step]);
        any = true;
      }
      if (!any) break;
    }
  }
  return out;
}

}  // namespace

const Matrix& BlockIds::of(const QbdBlocks& blocks, std::uint32_t id) {
  const std::size_t b = blocks.diag.size();
  if (id < b) return blocks.diag[id];
  if (id < 2 * b) return blocks.up[id - b];
  if (id < 3 * b) return blocks.down[id - 2 * b];
  switch (id - 3 * b) {
    case 0: return blocks.b11;
    case 1: return blocks.a0;
    case 2: return blocks.a1;
    default: GS_ASSERT(id - 3 * b == 3); return blocks.a2;
  }
}

Matrix& BlockIds::of(QbdBlocks& blocks, std::uint32_t id) {
  return const_cast<Matrix&>(of(std::as_const(blocks), id));
}

RateProgram::RateProgram(std::vector<std::size_t> level_dims, std::size_t d,
                         std::size_t out_slots, std::size_t value_count)
    : level_dims_(std::move(level_dims)),
      d_(d),
      out_slots_(out_slots),
      value_count_(value_count) {
  GS_CHECK(d_ > 0, "RateProgram: the repeating level must be non-empty");
  GS_CHECK(value_count_ >= 1, "RateProgram: values[0] = 1 is required");
  const std::size_t b = level_dims_.size();
  GS_CHECK(3 * b + 4 < 0xffffu, "RateProgram: too many boundary levels");
  for (std::size_t n : level_dims_)
    GS_CHECK(n > 0, "RateProgram: boundary levels must be non-empty");
  const auto dim = [&](std::size_t i) { return i < b ? level_dims_[i] : d_; };
  const BlockIds id = ids();
  rows_.assign(id.count(), d_);
  cols_.assign(id.count(), d_);
  for (std::size_t i = 0; i < b; ++i) {
    rows_[id.diag(i)] = cols_[id.diag(i)] = dim(i);
    rows_[id.up(i)] = dim(i);
    cols_[id.up(i)] = dim(i + 1);
    rows_[id.down(i)] = dim(i + 1);
    cols_[id.down(i)] = dim(i);
  }
  for (std::size_t k = 0; k < id.count(); ++k)
    GS_CHECK(rows_[k] * cols_[k] < 0xffffffffu, "RateProgram: block too large");
}

void RateProgram::add(std::uint32_t block, std::size_t row, std::size_t col,
                      std::uint32_t out, double coef, std::uint32_t src) {
  GS_CHECK(!sealed_, "RateProgram: add after seal");
  GS_CHECK(block < rows_.size() && row < rows_[block] && col < cols_[block],
           "RateProgram: transition outside the blocks");
  GS_CHECK(out == kNoOut || out < out_slots_,
           "RateProgram: out-rate slot out of range");
  GS_CHECK(src < value_count_, "RateProgram: rate source out of range");
  all_.push_back({coef, src, static_cast<std::uint16_t>(block), 0,
                  static_cast<std::uint32_t>(row * cols_[block] + col),
                  out == kNoOut ? static_cast<std::uint32_t>(out_slots_)
                                : out});
  all_rows_.push_back(static_cast<std::uint32_t>(row));
}

void RateProgram::subtract_out(std::uint32_t block, std::size_t row,
                               std::uint32_t out) {
  GS_CHECK(!sealed_, "RateProgram: subtract_out after seal");
  const BlockIds id = ids();
  GS_CHECK(block < id.b || block == id.b11() || block == id.a1(),
           "RateProgram: only D_i, B11 and A1 carry a diagonal");
  GS_CHECK(row < rows_[block], "RateProgram: diagonal row out of range");
  GS_CHECK(out < out_slots_, "RateProgram: out-rate slot out of range");
  diags_.push_back(
      {{block, static_cast<std::uint32_t>(row * cols_[block] + row)}, out, 0});
}

void RateProgram::seal(const QbdBlocks& evaluated) {
  GS_CHECK(!sealed_, "RateProgram: sealed twice");
  const BlockIds id = ids();
  const auto nb = static_cast<std::uint32_t>(id.count());
  const auto sink_slot = static_cast<std::uint32_t>(out_slots_);
  bool same_shape = evaluated.diag.size() == id.b && evaluated.a1.rows() == d_;
  for (std::size_t i = 0; same_shape && i < id.b; ++i)
    same_shape = evaluated.diag[i].rows() == level_dims_[i];
  GS_CHECK(same_shape, "RateProgram::seal: blocks of another shape");
  sealed_ = true;

  // The structural cells (those a transition or a fix-up writes), in
  // order of first write, numbered through a flat index of all cells.
  constexpr std::uint32_t kNone = 0xffffffffu;
  std::vector<std::size_t> base(nb + 1, 0);
  for (std::uint32_t k = 0; k < nb; ++k)
    base[k + 1] = base[k] + rows_[k] * cols_[k];
  std::vector<std::uint32_t> number(base[nb], kNone);
  std::vector<Cell> cells;
  std::vector<std::uint32_t> cell_row;  // per structural cell
  std::vector<std::uint8_t> dynamic;
  const auto cell_of = [&](std::uint32_t block, std::uint32_t offset,
                           std::uint32_t row) {
    std::uint32_t& n = number[base[block] + offset];
    if (n == kNone) {
      n = static_cast<std::uint32_t>(cells.size());
      cells.push_back({block, offset});
      cell_row.push_back(row);
      dynamic.push_back(0);
    }
    return n;
  };
  std::vector<std::uint8_t> dyn_out(out_slots_ + 1, 0);
  std::vector<std::uint32_t> op_cell(all_.size());
  cells.reserve(all_.size() + diags_.size());
  cell_row.reserve(all_.size() + diags_.size());
  dynamic.reserve(all_.size() + diags_.size());
  for (std::size_t i = 0; i < all_.size(); ++i) {
    const Op& op = all_[i];
    op_cell[i] = cell_of(op.block, op.offset, all_rows_[i]);
    if (op.src != 0) {
      dynamic[op_cell[i]] = 1;
      dyn_out[op.out] = 1;
    }
  }
  dyn_out[sink_slot] = 0;
  for (const Diagonal& dg : diags_) {
    // A diagonal cell (r, r) sits at offset r * (cols + 1).
    const auto row = static_cast<std::uint32_t>(
        dg.cell.offset / (cols_[dg.cell.block] + 1));
    const std::uint32_t c = cell_of(dg.cell.block, dg.cell.offset, row);
    if (dyn_out[dg.out]) dynamic[c] = 1;
  }

  // What a replay re-runs: every transition into a rewritten cell or a
  // rewritten accumulator, the other target sent to the sink. Chains
  // for interleaving: the runs of consecutive transitions with one
  // accumulator (a sink transition joins the run it follows). Runs may
  // interleave only if no cell is written from two runs; else the replay
  // keeps the added order.
  std::vector<Op> replay;
  std::vector<std::uint32_t> chain, starts;
  replay.reserve(all_.size());
  chain.reserve(all_.size());
  std::vector<std::uint32_t> cell_chain(cells.size(), kNone);
  bool separable = true;
  std::uint32_t run_slot = kNone;
  for (std::size_t i = 0; i < all_.size(); ++i) {
    const Op& op = all_[i];
    const bool cell = dynamic[op_cell[i]] != 0;
    const bool acc = dyn_out[op.out] != 0;
    if (!cell && !acc) continue;
    if (starts.empty() || (op.out != sink_slot && op.out != run_slot)) {
      starts.push_back(static_cast<std::uint32_t>(replay.size()));
      if (op.out != sink_slot) run_slot = op.out;
    }
    const auto run = static_cast<std::uint32_t>(starts.size() - 1);
    if (cell) {
      std::uint32_t& owner = cell_chain[op_cell[i]];
      if (owner == kNone) owner = run;
      separable = separable && owner == run;
    }
    replay.push_back({op.coef, op.src,
                      static_cast<std::uint16_t>(cell ? op.block : nb), 0,
                      cell ? op.offset : 0, acc ? op.out : sink_slot});
    chain.push_back(run);
  }
  starts.push_back(static_cast<std::uint32_t>(replay.size()));
  // A run's accumulator must not reappear in a later run either.
  std::vector<std::uint32_t> slot_chain(out_slots_ + 1, kNone);
  for (std::size_t i = 0; separable && i < replay.size(); ++i) {
    if (replay[i].out == sink_slot) continue;
    std::uint32_t& owner = slot_chain[replay[i].out];
    if (owner == kNone) owner = chain[i];
    separable = owner == chain[i];
  }
  replay_ = separable ? interleave(replay, starts) : std::move(replay);
  // Each rewritten cell starts from +0.0 at its first write, a
  // transition or else its diagonal fix-up (interleaving kept each
  // cell's order, so the first write is the same either way).
  std::vector<std::uint8_t> written(cells.size(), 0);
  for (Op& op : replay_) {
    if (op.block == nb) continue;
    std::uint8_t& w = written[number[base[op.block] + op.offset]];
    op.first = w == 0;
    w = 1;
  }
  for (Diagonal dg : diags_) {
    const std::uint32_t c = number[base[dg.cell.block] + dg.cell.offset];
    if (!dynamic[c]) continue;
    dg.first = written[c] == 0;
    dyn_diags_.push_back(dg);
  }

  // Generator rows: boundary row (i, r), made of row r of D_i, U_i and
  // L_{i-1}; level-b row r (B11, A0, L_{b-1}); repeating row r (A0, A1,
  // A2). The structural cells, bucketed by block row, give each row's
  // cells: a constant one keeps its evaluated value (recorded once, from
  // its first row), a rewritten one becomes a row term.
  const std::size_t b = id.b;
  std::vector<std::uint32_t> row_base(nb + 1, 0);
  for (std::uint32_t k = 0; k < nb; ++k)
    row_base[k + 1] = row_base[k] + static_cast<std::uint32_t>(rows_[k]);
  std::vector<std::uint32_t> bucket(row_base[nb] + 1, 0);
  for (std::uint32_t c = 0; c < cells.size(); ++c)
    ++bucket[row_base[cells[c].block] + cell_row[c] + 1];
  for (std::size_t j = 0; j + 1 < bucket.size(); ++j) bucket[j + 1] += bucket[j];
  std::vector<std::uint32_t> by_row(cells.size());
  {
    std::vector<std::uint32_t> fill(bucket.begin(), bucket.end() - 1);
    for (std::uint32_t c = 0; c < cells.size(); ++c)
      by_row[fill[row_base[cells[c].block] + cell_row[c]]++] = c;
  }
  std::vector<RowTerm> terms;
  std::vector<std::uint32_t> term_starts;
  std::vector<std::uint8_t> recorded(cells.size(), 0);
  terms.reserve(cells.size());
  static_cells_.reserve(cells.size());
  const auto has_diagonal = [&](std::uint32_t k) {
    return k < b || k == id.b11() || k == id.a1();
  };
  const auto scan_row = [&](std::uint8_t kind, std::size_t r,
                            std::initializer_list<std::uint32_t> blocks) {
    const auto first = static_cast<std::uint32_t>(terms.size());
    const auto row = static_cast<std::uint32_t>(row_kind_.size());
    double sum = 0.0;
    for (const std::uint32_t k : blocks) {
      // validate()'s scale reads the D_i, B11, A0, A1, A2, not U_i, L_i.
      const std::uint32_t scales = k < b || k >= id.b11() ? 1 : 0;
      const double* value = BlockIds::of(evaluated, k).data();
      const std::size_t diagonal = r * cols_[k] + r;
      const std::uint32_t key = row_base[k] + static_cast<std::uint32_t>(r);
      for (std::uint32_t j = bucket[key]; j < bucket[key + 1]; ++j) {
        const std::uint32_t n = by_row[j];
        const std::uint32_t offset = cells[n].offset;
        if (dynamic[n]) {
          terms.push_back({{k, offset}, row, scales});
          continue;
        }
        const double v = value[offset];
        sum += v;
        if (recorded[n]) continue;
        recorded[n] = 1;
        static_cells_.push_back({{k, offset}, v});
        if (scales) static_max_abs_ = std::max(static_max_abs_, std::fabs(v));
        if (!(has_diagonal(k) && offset == diagonal))
          static_min_offdiag_ = std::min(static_min_offdiag_, v);
      }
    }
    if (terms.size() > first) {
      term_starts.push_back(first);
      row_kind_.push_back(kind);
      row_static_.push_back(sum);
    } else {
      static_row_sum_[kind] = std::max(static_row_sum_[kind], std::fabs(sum));
    }
  };
  for (std::size_t i = 0; i < b; ++i)
    for (std::size_t r = 0; r < level_dims_[i]; ++r) {
      if (i > 0) {
        scan_row(0, r, {id.diag(i), id.up(i), id.down(i - 1)});
      } else {
        scan_row(0, r, {id.diag(i), id.up(i)});
      }
    }
  for (std::size_t r = 0; r < d_; ++r) {
    if (b > 0) {
      scan_row(1, r, {id.b11(), id.a0(), id.down(b - 1)});
    } else {
      scan_row(1, r, {id.b11(), id.a0()});
    }
  }
  for (std::size_t r = 0; r < d_; ++r)
    scan_row(2, r, {id.a0(), id.a1(), id.a2()});
  term_starts.push_back(static_cast<std::uint32_t>(terms.size()));
  row_terms_ = interleave(terms, term_starts);

  std::vector<Op>().swap(all_);
  std::vector<std::uint32_t>().swap(all_rows_);
  std::vector<Diagonal>().swap(diags_);
}

QbdProcess::QbdProcess(QbdBlocks blocks) : blocks_(std::move(blocks)) {
  validate();
  for (const Matrix& m : blocks_.diag) boundary_size_ += m.rows();
}

QbdProcess::QbdProcess(const RateProgram& program, RateBuffers& buf) {
  const std::size_t b = program.level_dims_.size();
  blocks_.diag.resize(b);
  blocks_.up.resize(b);
  blocks_.down.resize(b);
  const BlockIds id = program.ids();
  for (std::uint32_t k = 0; k < id.count(); ++k)
    BlockIds::of(blocks_, k).assign_zero(program.rows_[k], program.cols_[k]);
  bind(program, buf);
  if (program.sealed_) {
    for (const RateProgram::StaticCell& sc : program.static_cells_)
      buf.blocks[sc.cell.block][sc.cell.offset] = sc.value;
    replay(program, buf);
  } else {
    double* const* cell = buf.blocks.data();
    double* out = buf.out.data();
    const double* val = buf.values.data();
    bool ok = true;
    for (const RateProgram::Op& op : program.all_) {
      const double v = op.coef * val[op.src];
      cell[op.block][op.offset] += v;
      out[op.out] += v;
      ok &= (v >= 0.0) & (v <= std::numeric_limits<double>::max());
    }
    GS_CHECK(ok, "QBD transition rates must be finite and non-negative");
    for (const RateProgram::Diagonal& dg : program.diags_)
      cell[dg.cell.block][dg.cell.offset] -= out[dg.out];
  }
  validate();
  for (const Matrix& m : blocks_.diag) boundary_size_ += m.rows();
}

void QbdProcess::bind(const RateProgram& program, RateBuffers& buf) {
  const BlockIds id = program.ids();
  bool same_shape = blocks_.diag.size() == id.b &&
                    blocks_.a1.rows() == program.d_;
  for (std::size_t i = 0; same_shape && i < id.b; ++i)
    same_shape = blocks_.diag[i].rows() == program.level_dims_[i];
  GS_CHECK(same_shape,
           "QbdProcess: the rate program was built for another shape");
  GS_CHECK(buf.values.size() == program.value_count_ && buf.values[0] == 1.0,
           "RateProgram values must hold every source, with values[0] = 1");
  bool finite = true;
  for (double v : buf.values) finite &= std::isfinite(v);
  GS_CHECK(finite, "RateProgram source values must be finite");
  buf.blocks.resize(id.count() + 1);
  for (std::uint32_t k = 0; k < id.count(); ++k)
    buf.blocks[k] = BlockIds::of(blocks_, k).data();
  buf.blocks[id.count()] = &buf.sink;
  buf.out.assign(program.out_slots_ + 1, 0.0);
}

void QbdProcess::replay(const RateProgram& program, RateBuffers& buf) {
  double* const* cell = buf.blocks.data();
  double* out = buf.out.data();
  const double* val = buf.values.data();
  // A cell's first write starts it from +0.0: its old bits are masked
  // off (branch-free, and exact for any old value).
  const auto old_value = [](double c, std::uint32_t first) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(c) &
                                 (std::uint64_t{first} - 1));
  };
  bool ok = true;
  for (const RateProgram::Op& op : program.replay_) {
    const double v = op.coef * val[op.src];
    double& c = cell[op.block][op.offset];
    c = old_value(c, op.first) + v;
    out[op.out] += v;
    ok &= (v >= 0.0) & (v <= std::numeric_limits<double>::max());
  }
  GS_CHECK(ok, "QBD transition rates must be finite and non-negative");
  for (const RateProgram::Diagonal& dg : program.dyn_diags_) {
    double& c = cell[dg.cell.block][dg.cell.offset];
    c = old_value(c, dg.first) - out[dg.out];
  }
}

void QbdProcess::revalue(const RateProgram& program, RateBuffers& buf) {
  GS_CHECK(program.sealed_, "QbdProcess: the rate program is not sealed");
  bind(program, buf);
  replay(program, buf);
  double* const* cell = buf.blocks.data();

  // validate() on what changed, against validate()'s tolerance: the
  // sums of the touched rows (constant part plus rewritten cells) and the
  // largest entry, from the program's nonzeros (four running maxima, so
  // the terms pipeline).
  std::vector<double>& sums = buf.row_sums;
  sums = program.row_static_;
  double* sum = sums.data();
  // Adds one term to its row and returns |value| if it sets the scale,
  // else +0.0 (masked, not branched).
  const auto term = [&](const RateProgram::RowTerm& t) {
    const double x = cell[t.cell.block][t.cell.offset];
    sum[t.row] += x;
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(std::fabs(x)) &
                                 (std::uint64_t{0} - t.scales));
  };
  double top0 = std::max(program.static_max_abs_, 1.0);
  double top1 = 0.0, top2 = 0.0, top3 = 0.0;
  const RateProgram::RowTerm* terms = program.row_terms_.data();
  const std::size_t n = program.row_terms_.size();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    top0 = std::max(top0, term(terms[j]));
    top1 = std::max(top1, term(terms[j + 1]));
    top2 = std::max(top2, term(terms[j + 2]));
    top3 = std::max(top3, term(terms[j + 3]));
  }
  for (; j < n; ++j) top0 = std::max(top0, term(terms[j]));
  const double scale = std::max(std::max(top0, top1), std::max(top2, top3));
  const double tol = 1e-8 * scale;
  double worst[3] = {program.static_row_sum_[0], program.static_row_sum_[1],
                     program.static_row_sum_[2]};
  for (std::size_t r = 0; r < sums.size(); ++r) {
    double& w = worst[program.row_kind_[r]];
    const double a = std::fabs(sum[r]);
    w = a <= w ? w : a;  // a NaN sum is kept, and fails below
  }
  GS_CHECK(worst[0] <= tol, "QBD boundary row sums must vanish");
  GS_CHECK(worst[1] <= tol, "QBD level-b row sums must vanish");
  GS_CHECK(worst[2] <= tol, "QBD repeating row sums must vanish");
  GS_CHECK(program.static_min_offdiag_ >= -tol,
           "QBD block has a negative off-diagonal entry");
}

void QbdProcess::validate() const {
  const std::size_t d = blocks_.a1.rows();
  GS_CHECK(d > 0, "QBD repeating blocks must be non-empty");
  GS_CHECK(blocks_.a0.rows() == d && blocks_.a0.cols() == d &&
               blocks_.a1.cols() == d && blocks_.a2.rows() == d &&
               blocks_.a2.cols() == d,
           "QBD repeating blocks A0/A1/A2 must all be d x d");
  GS_CHECK(blocks_.b11.rows() == d && blocks_.b11.cols() == d,
           "QBD level-b block B11 must be d x d");

  const std::size_t b = blocks_.diag.size();
  GS_CHECK(blocks_.up.size() == b && blocks_.down.size() == b,
           "QBD boundary needs one diagonal, up and down block per "
           "boundary-interior level");
  // n_i per level; level b has the repeating dimension.
  auto dim = [&](std::size_t i) {
    return i < b ? blocks_.diag[i].rows() : d;
  };
  for (std::size_t i = 0; i < b; ++i) {
    GS_CHECK(blocks_.diag[i].rows() > 0 && blocks_.diag[i].is_square(),
             "QBD boundary diagonal blocks must be square and non-empty");
    GS_CHECK(blocks_.up[i].rows() == dim(i) &&
                 blocks_.up[i].cols() == dim(i + 1),
             "QBD boundary up block i must be n_i x n_{i+1}");
    GS_CHECK(blocks_.down[i].rows() == dim(i + 1) &&
                 blocks_.down[i].cols() == dim(i),
             "QBD boundary down block i must be n_{i+1} x n_i");
  }

  // Row-sum validation (generator rows must vanish).
  double scale = std::max({blocks_.b11.max_abs(), blocks_.a0.max_abs(),
                           blocks_.a1.max_abs(), blocks_.a2.max_abs(), 1.0});
  for (const Matrix& m : blocks_.diag) scale = std::max(scale, m.max_abs());
  const double tol = 1e-8 * scale;

  // Row i of the level's row sums, accumulated block by block.
  auto row_sum = [](const Matrix& m, std::size_t r) {
    const double* row = m.data() + r * m.cols();
    double acc = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) acc += row[c];
    return acc;
  };
  for (std::size_t i = 0; i < b; ++i)
    for (std::size_t r = 0; r < dim(i); ++r) {
      double acc = row_sum(blocks_.diag[i], r) + row_sum(blocks_.up[i], r);
      if (i > 0) acc += row_sum(blocks_.down[i - 1], r);
      GS_CHECK(std::fabs(acc) <= tol, "QBD boundary row sums must vanish");
    }
  for (std::size_t r = 0; r < d; ++r) {
    double acc = row_sum(blocks_.b11, r) + row_sum(blocks_.a0, r);
    if (b > 0) acc += row_sum(blocks_.down[b - 1], r);
    GS_CHECK(std::fabs(acc) <= tol, "QBD level-b row sums must vanish");
  }
  for (std::size_t r = 0; r < d; ++r)
    GS_CHECK(std::fabs(row_sum(blocks_.a0, r) + row_sum(blocks_.a1, r) +
                       row_sum(blocks_.a2, r)) <= tol,
             "QBD repeating row sums must vanish");

  // Off-diagonal non-negativity of every block (the diagonal lives in the
  // D_i, B11 and A1 only).
  auto check_nonneg = [&](const Matrix& m, bool has_diag, const char* name) {
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < m.cols(); ++j) {
        if (has_diag && i == j) continue;
        GS_CHECK(m(i, j) >= -tol,
                 std::string("QBD block ") + name +
                     " has a negative off-diagonal entry");
      }
  };
  for (std::size_t i = 0; i < b; ++i) {
    check_nonneg(blocks_.diag[i], true, "D_i");
    check_nonneg(blocks_.up[i], false, "U_i");
    check_nonneg(blocks_.down[i], false, "L_i");
  }
  check_nonneg(blocks_.b11, true, "B11");
  check_nonneg(blocks_.a0, false, "A0");
  check_nonneg(blocks_.a1, true, "A1");
  check_nonneg(blocks_.a2, false, "A2");
}

QbdProcess::Drift QbdProcess::drift() const {
  Drift out;
  const Matrix a = blocks_.a0 + blocks_.a1 + blocks_.a2;
  // A is itself a generator (rows sum to zero); its stationary vector y is
  // the phase process ignoring the level.
  out.y = linalg::gth_stationary(a);
  out.up_drift = linalg::dot(out.y, blocks_.a0.row_sums());
  out.down_drift = linalg::dot(out.y, blocks_.a2.row_sums());
  out.stable = out.up_drift < out.down_drift;
  return out;
}

Matrix QbdProcess::corner(std::size_t repeating_levels) const {
  const std::size_t b = boundary_levels();
  const std::size_t D = boundary_size();
  const std::size_t d = repeating_size();
  const std::size_t n = D + d * (1 + repeating_levels);
  Matrix q(n, n);
  std::size_t off = 0;
  for (std::size_t i = 0; i < b; ++i) {
    const std::size_t ni = blocks_.diag[i].rows();
    q.insert_block(off, off, blocks_.diag[i]);
    q.insert_block(off, off + ni, blocks_.up[i]);
    q.insert_block(off + ni, off, blocks_.down[i]);
    off += ni;
  }
  q.insert_block(D, D, blocks_.b11);
  for (std::size_t k = 0; k <= repeating_levels; ++k) {
    const std::size_t r0 = D + k * d;
    if (k > 0) {
      q.insert_block(r0, r0, blocks_.a1);
      q.insert_block(r0, r0 - d, blocks_.a2);
    }
    if (k < repeating_levels) q.insert_block(r0, r0 + d, blocks_.a0);
  }
  return q;
}

bool QbdProcess::is_irreducible() const {
  // Section 4.4: the boundary plus the first repeating level strongly
  // connected implies irreducibility of the whole process, because levels
  // repeat identically from there on. The top corner's last level lacks
  // its up-block, which could only *remove* connectivity, so we include
  // two repeating levels and test the sub-corner reachability on the first.
  const Matrix q = corner(2);
  const auto comp = markov::strongly_connected_components(q);
  const std::size_t check = boundary_size() + 2 * repeating_size();
  for (std::size_t i = 0; i < check; ++i) {
    if (comp[i] != comp[0]) return false;
  }
  return true;
}

}  // namespace gs::qbd
