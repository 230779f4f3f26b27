#include "engine/exec.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <utility>

#include "common/bytes.h"
#include "common/stopwatch.h"
#include "core/vec_kernels.h"
#include "engine/batch.h"
#include "engine/vec_expr.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sqlarray::engine {

Result<Value> ResultSet::ScalarResult() const {
  if (rows.size() != 1 || rows[0].size() != 1) {
    return Status::InvalidArgument("result is not a single scalar");
  }
  return rows[0][0];
}

SubqueryScope::SubqueryScope(Executor* executor, SubqueryFn fn)
    : executor_(executor),
      fn_(std::make_unique<SubqueryFn>(std::move(fn))) {
  executor_->subquery_fn_ = fn_.get();
}

SubqueryScope& SubqueryScope::operator=(SubqueryScope&& o) noexcept {
  Release();
  executor_ = std::exchange(o.executor_, nullptr);
  fn_ = std::move(o.fn_);
  return *this;
}

bool SubqueryScope::active() const {
  return executor_ != nullptr && fn_ != nullptr &&
         executor_->subquery_fn_ == fn_.get();
}

void SubqueryScope::Release() {
  // Only uninstall if the executor still points at THIS scope's function —
  // a scope displaced by a newer install must not tear the newer one down.
  // CAS so a concurrent install from another session cannot be torn down
  // between the check and the clear.
  if (executor_ != nullptr && fn_ != nullptr) {
    const SubqueryFn* expected = fn_.get();
    executor_->subquery_fn_.compare_exchange_strong(expected, nullptr);
  }
  executor_ = nullptr;
  fn_.reset();
}

SubqueryScope Executor::InstallSubqueryRunner(SubqueryFn fn) {
  return SubqueryScope(this, std::move(fn));
}

Result<Value> Executor::EvalStandalone(const Expr& expr,
                                       std::map<std::string, Value>* variables,
                                       QueryStats* stats) {
  EvalContext ctx;
  ctx.variables = variables;
  ctx.udf.pool = db_->buffer_pool();
  ctx.udf.subquery = subquery_fn_;
  ctx.udf.stats = stats;
  ctx.udf.cost = &cost_;
  // Standalone evaluation has no QueryContext; ambient thread limits (the
  // session installs them per statement) keep UDF chains governable.
  ctx.udf.limits = gov::ThreadLimits();
  return Eval(expr, ctx);
}

Status Executor::Bind(Query* q) const {
  if (q->table != nullptr && q->tvf != nullptr) {
    return Status::InvalidArgument("query cannot have two row sources");
  }
  // TVF arguments are standalone expressions (no row context).
  for (ExprPtr& a : q->tvf_args) {
    SQLARRAY_RETURN_IF_ERROR(BindExpr(a.get(), nullptr, registry_));
  }

  auto bind = [&](Expr* e) -> Status {
    if (q->tvf != nullptr) {
      return BindExprToColumns(e, q->tvf->columns, registry_);
    }
    const storage::Schema* schema =
        q->table != nullptr ? &q->table->schema() : nullptr;
    return BindExpr(e, schema, registry_);
  };
  for (SelectItem& item : q->items) {
    if (item.expr != nullptr) {
      SQLARRAY_RETURN_IF_ERROR(bind(item.expr.get()));
    }
    for (ExprPtr& a : item.uda_args) {
      SQLARRAY_RETURN_IF_ERROR(bind(a.get()));
    }
  }
  if (q->where != nullptr) {
    SQLARRAY_RETURN_IF_ERROR(bind(q->where.get()));
  }
  for (ExprPtr& g : q->group_by) {
    SQLARRAY_RETURN_IF_ERROR(bind(g.get()));
  }
  return Status::OK();
}

namespace {

bool HasAggregates(const Query& q) {
  for (const SelectItem& item : q.items) {
    if (item.agg != SelectItem::AggKind::kNone) return true;
  }
  return false;
}

bool HasUda(const Query& q) {
  for (const SelectItem& item : q.items) {
    if (item.agg == SelectItem::AggKind::kUda) return true;
  }
  return false;
}

/// Accumulator for one aggregate within one group.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  bool int_only = true;
  int64_t isum = 0;
  // UDA state
  std::unique_ptr<Uda> uda;
  std::vector<uint8_t> uda_state;

  /// Combines a partial accumulator from another morsel (native aggregate
  /// kinds only: a UDA query is a one-morsel grid, so its state never
  /// merges). Integer sums wrap.
  void Merge(const AggState& other) {
    count += other.count;
    sum += other.sum;
    isum = col::WrapAdd(isum, other.isum);
    mn = std::min(mn, other.mn);
    mx = std::max(mx, other.mx);
    int_only = int_only && other.int_only;
  }
};

/// Folds one evaluated aggregate argument into the accumulator. Shared by
/// every row-at-a-time loop so accumulation arithmetic (and therefore
/// results) is identical bit for bit across them; the columnar folds
/// (col::FoldI64 / FoldF64) mirror it, integer sums wrapping included.
Status AccumulateNative(SelectItem::AggKind agg, const Value& v,
                        AggState* st) {
  if (v.is_null()) return Status::OK();
  if (agg == SelectItem::AggKind::kCount) {
    st->count++;
    return Status::OK();
  }
  SQLARRAY_ASSIGN_OR_RETURN(double d, v.AsDouble());
  if (v.kind() == Value::Kind::kInt64) {
    st->isum = col::WrapAdd(st->isum, v.AsInt().value());
  } else {
    st->int_only = false;
  }
  st->count++;
  st->sum += d;
  st->mn = std::min(st->mn, d);
  st->mx = std::max(st->mx, d);
  return Status::OK();
}

/// Produces the final output value of a native aggregate. Shared by every
/// aggregation path.
Result<Value> FinishNative(SelectItem::AggKind agg, const AggState& st) {
  switch (agg) {
    case SelectItem::AggKind::kCount:
      return Value::Int(st.count);
    case SelectItem::AggKind::kSum:
      if (st.count == 0) return Value::Null();
      if (st.int_only) return Value::Int(st.isum);
      return Value::Double(st.sum);
    case SelectItem::AggKind::kMin:
      return st.count == 0 ? Value::Null() : Value::Double(st.mn);
    case SelectItem::AggKind::kMax:
      return st.count == 0 ? Value::Null() : Value::Double(st.mx);
    case SelectItem::AggKind::kAvg:
      return st.count == 0
                 ? Value::Null()
                 : Value::Double(st.sum / static_cast<double>(st.count));
    default:
      return Status::Internal("FinishNative on a non-native aggregate");
  }
}

/// True when COUNT takes the bare-increment shortcut (COUNT(*)): no
/// argument evaluation and no native_agg_step charge.
bool IsCountStar(const SelectItem& item) {
  return item.agg == SelectItem::AggKind::kCount &&
         (item.expr == nullptr || item.expr->kind == Expr::Kind::kStar);
}

/// True when a scan takes the chunk helpers' batched branch: a table
/// source, a batch setting above 1, no GROUP BY (group creation is
/// inherently per-row) and no UDA (its state crosses the boundary row by
/// row). Row-mode TOP stays on the early-exit row loop too: gathering a
/// whole batch past the limit would inflate rows_scanned.
bool BatchedScan(const Query& q, int batch_rows) {
  if (q.table == nullptr || batch_rows <= 1 || !q.group_by.empty() ||
      HasUda(q)) {
    return false;
  }
  return HasAggregates(q) || q.top < 0;
}

/// SQL truthiness of WHERE on the context's current row (NULL is false).
Result<bool> RowPasses(const Query& q, EvalContext& ctx) {
  if (q.where == nullptr) return true;
  SQLARRAY_ASSIGN_OR_RETURN(Value keep, Eval(*q.where, ctx));
  if (keep.is_null()) return false;
  SQLARRAY_ASSIGN_OR_RETURN(int64_t truthy, keep.AsInt());
  return truthy != 0;
}

/// Evaluates the WHERE column for a gathered batch and fills `sel` with the
/// indices of surviving rows (SQL truthiness: NULL is false).
Status FilterBatch(const Query& q, BatchContext* bctx,
                   std::vector<Value>* keep_col, std::vector<int32_t>* sel) {
  const int32_t nrows = bctx->batch->size();
  sel->clear();
  bctx->sel = nullptr;
  if (q.where == nullptr) {
    for (int32_t i = 0; i < nrows; ++i) sel->push_back(i);
    return Status::OK();
  }
  SQLARRAY_RETURN_IF_ERROR(EvalBatch(*q.where, *bctx, keep_col));
  for (int32_t i = 0; i < nrows; ++i) {
    const Value& keep = (*keep_col)[i];
    int64_t truthy = 0;
    if (!keep.is_null()) {
      SQLARRAY_ASSIGN_OR_RETURN(truthy, keep.AsInt());
    }
    if (truthy != 0) sel->push_back(i);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Vectorized pipeline glue: per-query compiled programs, scratch registers,
// pipeline counters, and the columnar aggregate bridge.
// ---------------------------------------------------------------------------

// Counters are resolved once per process (GetCounter takes the registry
// mutex); Add is a relaxed atomic, safe from morsel workers.
obs::Counter& VecBatchesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("vec.batches");
  return *c;
}
obs::Counter& VecRowsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter("vec.rows");
  return *c;
}
obs::Counter& VecFallbackRowsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("vec.fallback_rows");
  return *c;
}

/// Per-query compiled columnar programs: one for WHERE, one per select item
/// that the columnar domain covers. Null slots fall back to EvalBatch.
/// Built once per statement and shared read-only across morsel workers
/// (Run writes only the caller's scratch).
struct VecQueryPlan {
  bool any = false;
  bool where_ok = false;
  vec::VecProgram where;
  std::vector<std::unique_ptr<vec::VecProgram>> items;
};

/// Compiles the query's expressions best-effort. In aggregate mode only
/// native aggregate arguments compile (plain items evaluate once per query,
/// COUNT(*) never evaluates); in rows mode every projection item does.
VecQueryPlan BuildVecPlan(const Query& q,
                          const std::map<std::string, Value>* variables,
                          bool rows_mode) {
  VecQueryPlan p;
  const storage::Schema& schema = q.table->schema();
  if (q.where != nullptr) {
    p.where_ok = vec::VecProgram::Compile(*q.where, schema, variables, &p.where);
    p.any = p.any || p.where_ok;
  }
  p.items.resize(q.items.size());
  for (size_t i = 0; i < q.items.size(); ++i) {
    const SelectItem& item = q.items[i];
    if (item.expr == nullptr) continue;
    const bool wanted =
        rows_mode ? item.agg == SelectItem::AggKind::kNone
                  : (item.agg != SelectItem::AggKind::kNone &&
                     item.agg != SelectItem::AggKind::kUda && !IsCountStar(item));
    if (!wanted) continue;
    auto prog = std::make_unique<vec::VecProgram>();
    if (vec::VecProgram::Compile(*item.expr, schema, variables, prog.get())) {
      p.items[i] = std::move(prog);
      p.any = true;
    }
  }
  return p;
}

/// Register-file heap footprint for budget accounting: every instruction
/// owns one value lane plus a validity bitmap at batch width.
int64_t VecPlanFootprint(const VecQueryPlan& p, int batch_rows) {
  int64_t instrs = p.where_ok ? p.where.num_instrs() : 0;
  for (const auto& prog : p.items) {
    if (prog != nullptr) instrs += prog->num_instrs();
  }
  const int64_t per_reg =
      static_cast<int64_t>(batch_rows) * 8 +
      static_cast<int64_t>(col::ValidityWords(batch_rows)) * 8;
  return instrs * per_reg;
}

/// Per-worker columnar scratch: the shared register file (sized to the
/// largest program that runs in it) and the filter truncation column.
struct VecScratch {
  std::vector<col::ColumnVec> regs;
  col::ColumnVec trunc;
};

/// Folds an evaluated columnar aggregate argument into the live AggState.
/// The fold continues the accumulator's serial chain (seed, fold, copy
/// back), so results are bit-identical to AccumulateNative row by row.
Status VecAccumulateColumn(SelectItem::AggKind agg, const col::ColumnVec& c,
                           AggState* st) {
  if (agg == SelectItem::AggKind::kCount) {
    st->count += col::CountValid(c.valid_words(), c.size());
    return Status::OK();
  }
  col::VecAggState vs;
  vs.count = st->count;
  vs.sum = st->sum;
  vs.mn = st->mn;
  vs.mx = st->mx;
  vs.int_only = st->int_only;
  vs.isum = st->isum;
  SQLARRAY_RETURN_IF_ERROR(
      c.lane() == col::Lane::kI64
          ? col::FoldI64(c.i64(), c.valid_words(), c.size(), &vs)
          : col::FoldF64(c.f64(), c.valid_words(), c.size(), &vs));
  st->count = vs.count;
  st->sum = vs.sum;
  st->mn = vs.mn;
  st->mx = vs.mx;
  st->int_only = vs.int_only;
  st->isum = vs.isum;
  return Status::OK();
}

/// Serializes a grouping key value into a byte string for hashing.
void AppendGroupKey(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kInt64: {
      int64_t x = v.AsInt().value();
      out->append(reinterpret_cast<const char*>(&x), 8);
      break;
    }
    case Value::Kind::kFloat64: {
      double x = v.AsDouble().value();
      out->append(reinterpret_cast<const char*>(&x), 8);
      break;
    }
    case Value::Kind::kString:
      out->append(v.AsString().value());
      break;
    case Value::Kind::kBytes: {
      const auto* b = v.AsBytes().value();
      out->append(reinterpret_cast<const char*>(b->data()), b->size());
      break;
    }
    default:
      break;  // NULL and blobs group as one bucket per kind
  }
  out->push_back('\x1f');
}

/// True if any call node in the tree binds a function matching `pred`.
template <typename Pred>
bool AnyBoundCall(const Expr* e, const Pred& pred) {
  if (e == nullptr) return false;
  if (e->kind == Expr::Kind::kCall && e->bound_fn != nullptr &&
      pred(*e->bound_fn)) {
    return true;
  }
  for (const ExprPtr& a : e->args) {
    if (AnyBoundCall(a.get(), pred)) return true;
  }
  return false;
}

template <typename Pred>
bool QueryHasBoundCall(const Query& q, const Pred& pred) {
  for (const SelectItem& item : q.items) {
    if (AnyBoundCall(item.expr.get(), pred)) return true;
    for (const ExprPtr& a : item.uda_args) {
      if (AnyBoundCall(a.get(), pred)) return true;
    }
  }
  if (AnyBoundCall(q.where.get(), pred)) return true;
  for (const ExprPtr& g : q.group_by) {
    if (AnyBoundCall(g.get(), pred)) return true;
  }
  return false;
}

/// True when the scan may use more than one worker. A UDA folds one state
/// in scan order, and reader-style UDFs re-enter the session through the
/// subquery runner, so a query with either runs on the calling thread.
bool ParallelSafe(const Query& q) {
  return !HasUda(q) &&
         !QueryHasBoundCall(
             q, [](const ScalarFunction& f) { return f.needs_subquery; });
}

/// One group's accumulators. An ungrouped aggregation is the single group
/// with the empty key.
struct GroupAcc {
  std::vector<Value> keys;         // evaluated group_by exprs
  std::vector<Value> plain_items;  // first-row values of non-agg items
  std::vector<AggState> aggs;
  bool plain_filled = false;
};

/// The morsel grid and effective worker count for one scan. The grid is a
/// pure function of the table's page count (never of the worker count) so
/// merge order — and therefore float results — cannot depend on the degree
/// of parallelism. A TVF source has no pages: its grid is one morsel over
/// the function's materialized rows.
struct MorselPlanInfo {
  std::vector<storage::PageId> pages;
  size_t morsel_pages = 1;
  size_t n_morsels = 0;
  int workers = 1;
};

/// The statement's snapshot, when one is installed (MVCC / AS OF reads).
inline storage::PageSource* SnapOf(QueryContext* qctx) {
  return qctx != nullptr ? qctx->snapshot.get() : nullptr;
}

Result<MorselPlanInfo> PlanMorselScan(const Query& q, int requested_workers,
                                      int64_t min_pages_override,
                                      storage::PageSource* snap) {
  MorselPlanInfo plan;
  if (q.tvf != nullptr) {
    plan.n_morsels = 1;
    return plan;
  }
  SQLARRAY_ASSIGN_OR_RETURN(plan.pages, q.table->CollectLeafPages(snap));
  const int64_t n_pages = static_cast<int64_t>(plan.pages.size());
  if (!ParallelSafe(q)) {
    // A serial source is a one-morsel grid: the partial's fold chain is
    // the serial chain, so float results match a plain row loop bit for bit.
    plan.morsel_pages = std::max<size_t>(1, plan.pages.size());
    plan.n_morsels = plan.pages.empty() ? 0 : 1;
    return plan;
  }
  plan.morsel_pages = static_cast<size_t>(MorselPages(n_pages));
  plan.n_morsels =
      (plan.pages.size() + plan.morsel_pages - 1) / plan.morsel_pages;
  // A CLR call anywhere in the plan makes rows expensive enough that small
  // page ranges already amortize a worker's fixed setup.
  bool cpu_heavy = QueryHasBoundCall(
      q, [](const ScalarFunction& f) { return f.boundary == Boundary::kClr; });
  int64_t floor = min_pages_override >= 0
                      ? min_pages_override
                      : (cpu_heavy ? kClrPagesPerWorker
                                   : kNativePagesPerWorker);
  plan.workers = EffectiveWorkers(requested_workers, n_pages,
                                  static_cast<int64_t>(plan.n_morsels), floor);
  return plan;
}

/// Pages ahead of the cursor each morsel keeps resident (the ScanChunk
/// readahead hint) so a worker's disk stream stays sequential even when
/// UDFs interleave blob reads on the same thread.
constexpr int kMorselReadahead = 4;

/// Probes the statement's cancellation token (no-op when ungoverned).
inline Status GovCheck(const gov::QueryLimits* limits) {
  return limits != nullptr ? limits->Check() : Status::OK();
}

/// Charges query-private memory growth against the statement budget.
inline Status GovCharge(const gov::QueryLimits* limits, int64_t bytes) {
  return limits != nullptr ? limits->Charge(bytes) : Status::OK();
}

/// Approximate heap footprint of one materialized output row or hash-table
/// group entry (Value headers plus container overhead; blob payloads are
/// charged where they are read).
inline int64_t RowFootprint(size_t n_items) {
  return static_cast<int64_t>(n_items * sizeof(Value)) + 32;
}

/// Folds the current row into a UDA. SQL Server's hosting contract: the
/// state crosses the CLR boundary (deserialize + serialize) on EVERY row
/// (Sec. 4.2).
Status FoldUda(const SelectItem& item, const FunctionRegistry* registry,
               const CostModel& cost, EvalContext& ctx, AggState* st) {
  QueryStats* stats = ctx.udf.stats;
  if (st->uda == nullptr) {
    SQLARRAY_ASSIGN_OR_RETURN(
        const UdaFactory* factory,
        registry->ResolveUda(item.uda_schema, item.uda_name));
    st->uda = (*factory)();
    std::vector<Value> init_args;
    for (const ExprPtr& a : item.uda_args) {
      SQLARRAY_ASSIGN_OR_RETURN(Value v, Eval(*a, ctx));
      init_args.push_back(std::move(v));
    }
    SQLARRAY_ASSIGN_OR_RETURN(st->uda_state,
                              st->uda->Init(init_args, ctx.udf));
  }
  std::vector<Value> row_args;
  for (const ExprPtr& a : item.uda_args) {
    SQLARRAY_ASSIGN_OR_RETURN(Value v, Eval(*a, ctx));
    row_args.push_back(std::move(v));
  }
  int64_t state_bytes = static_cast<int64_t>(st->uda_state.size());
  stats->uda_state_bytes += 2 * state_bytes;
  stats->udf_calls++;
  double uda_charge_ns =
      cost.clr_call_ns +
      2.0 * cost.uda_state_byte_ns * static_cast<double>(state_bytes);
  stats->ChargeCpuNs(uda_charge_ns);
  if (stats->track_udf_detail) {
    QueryStats::UdfFnStats& d =
        stats->udf_by_fn[item.uda_schema + "." + item.uda_name];
    d.calls++;
    d.bytes += 2 * state_bytes;
    d.cpu_ns += uda_charge_ns;
  }
  SQLARRAY_ASSIGN_OR_RETURN(st->uda_state,
                            st->uda->Accumulate(st->uda_state, row_args,
                                                ctx.udf));
  return Status::OK();
}

/// Folds the current row into one group, item by item: plain items keep
/// their first-row value, COUNT(*) is a bare increment folded into the
/// row-scan cost, other native aggregates pay one evaluation step, and UDAs
/// marshal their state (created through the registry on first sight).
/// Shared by every row-at-a-time loop, so charges and fold order match.
Status FoldRow(const Query& q, const CostModel& cost,
               const FunctionRegistry* registry, EvalContext& ctx,
               GroupAcc* group) {
  QueryStats* stats = ctx.udf.stats;
  const size_t n_items = q.items.size();
  for (size_t i = 0; i < n_items; ++i) {
    const SelectItem& item = q.items[i];
    AggState& st = group->aggs[i];
    if (item.agg == SelectItem::AggKind::kNone) {
      if (!group->plain_filled) {
        SQLARRAY_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, ctx));
        group->plain_items.resize(n_items);
        group->plain_items[i] = std::move(v);
      }
    } else if (item.agg == SelectItem::AggKind::kUda) {
      SQLARRAY_RETURN_IF_ERROR(FoldUda(item, registry, cost, ctx, &st));
    } else if (IsCountStar(item)) {
      st.count++;
    } else {
      stats->agg_steps++;
      stats->ChargeCpuNs(cost.native_agg_step_ns);
      SQLARRAY_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, ctx));
      SQLARRAY_RETURN_IF_ERROR(AccumulateNative(item.agg, v, &st));
    }
  }
  group->plain_filled = true;
  return Status::OK();
}

/// Evaluates the GROUP BY keys on the current row and folds the row into
/// its group, creating the group on first sight. A fresh group of a GROUP
/// BY is charged against the budget: the hash table is where grouped
/// aggregation's memory actually grows.
Status GroupAndFoldRow(const Query& q, const CostModel& cost,
                       const FunctionRegistry* registry,
                       const gov::QueryLimits* limits, EvalContext& ctx,
                       std::map<std::string, GroupAcc>* groups) {
  std::string key;
  std::vector<Value> key_vals;
  for (const ExprPtr& g : q.group_by) {
    SQLARRAY_ASSIGN_OR_RETURN(Value v, Eval(*g, ctx));
    AppendGroupKey(v, &key);
    key_vals.push_back(std::move(v));
  }
  GroupAcc& group = (*groups)[key];
  if (group.aggs.empty()) {
    const size_t n_items = q.items.size();
    if (!q.group_by.empty()) {
      SQLARRAY_RETURN_IF_ERROR(GovCharge(
          limits, static_cast<int64_t>(key.size()) +
                      static_cast<int64_t>(n_items * sizeof(AggState)) +
                      RowFootprint(q.group_by.size())));
    }
    group.keys = std::move(key_vals);
    group.aggs.resize(n_items);
  }
  return FoldRow(q, cost, registry, ctx, &group);
}

/// Appends every group's output row to `rs` in key order, up to TOP rows.
/// Aggregate-only queries over empty inputs still yield one row.
Status EmitGroups(const Query& q, std::map<std::string, GroupAcc>* groups,
                  UdfContext& udf, ResultSet* rs) {
  const size_t n_items = q.items.size();
  if (groups->empty() && q.group_by.empty()) {
    (*groups)[""].aggs.resize(n_items);
  }
  for (auto& [key, group] : *groups) {
    (void)key;
    if (q.top >= 0 && static_cast<int64_t>(rs->rows.size()) >= q.top) break;
    std::vector<Value> row;
    for (size_t i = 0; i < n_items; ++i) {
      const SelectItem& item = q.items[i];
      AggState& st = group.aggs[i];
      if (item.agg == SelectItem::AggKind::kNone) {
        row.push_back(i < group.plain_items.size()
                          ? std::move(group.plain_items[i])
                          : Value::Null());
      } else if (item.agg == SelectItem::AggKind::kUda) {
        if (st.uda == nullptr) {
          row.push_back(Value::Null());
          continue;
        }
        SQLARRAY_ASSIGN_OR_RETURN(Value v,
                                  st.uda->Terminate(st.uda_state, udf));
        row.push_back(std::move(v));
      } else {
        SQLARRAY_ASSIGN_OR_RETURN(Value v, FinishNative(item.agg, st));
        row.push_back(std::move(v));
      }
    }
    rs->rows.push_back(std::move(row));
  }
  return Status::OK();
}

void MergeStats(QueryStats* into, const QueryStats& part) {
  into->rows_scanned += part.rows_scanned;
  into->rows_kept += part.rows_kept;
  into->agg_steps += part.agg_steps;
  into->udf_calls += part.udf_calls;
  into->udf_bytes_marshaled += part.udf_bytes_marshaled;
  into->uda_state_bytes += part.uda_state_bytes;
  into->cpu_core_seconds += part.cpu_core_seconds;
  for (const auto& [fn, d] : part.udf_by_fn) {
    QueryStats::UdfFnStats& dst = into->udf_by_fn[fn];
    dst.calls += d.calls;
    dst.bytes += d.bytes;
    dst.cpu_ns += d.cpu_ns;
  }
}

/// Fills `batch` from a scan cursor via CopyRows — one memcpy per
/// leaf-page run instead of a row()/Next() round trip per row. Row bytes,
/// row order, and page-load points are identical to the per-row loop.
Status FillBatchFromCursor(storage::BTree::Cursor& cursor, RowBatch* batch) {
  while (!batch->full() && cursor.valid()) {
    SQLARRAY_ASSIGN_OR_RETURN(
        int32_t got, cursor.CopyRows(batch->capacity() - batch->size(),
                                     batch->AppendSlots()));
    batch->CommitAppend(got);
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// The scan pipeline. Every query with a FROM source runs here: a table's
// leaf pages are cut into the deterministic morsel grid (engine/parallel.h)
// and a table-valued function is a one-morsel grid over its materialized
// rows. Each morsel's rows are filtered and folded into a private partial —
// batched or row at a time, with the same accumulation arithmetic and
// per-row cost charges either way — then the partials merge in
// morsel-index order.

/// What every morsel of one scan shares read-only: the query, its grid, the
/// executor's batch and vector settings, the function registry (UDA
/// factories), and the UDF context template (buffer pool, cost model,
/// subquery runner, governance). Each morsel copies `udf` and points its
/// stats at its own partial.
struct ScanEnv {
  const Query* q = nullptr;
  const CostModel* cost = nullptr;
  const FunctionRegistry* registry = nullptr;
  std::map<std::string, Value>* variables = nullptr;
  UdfContext udf;
  storage::PageSource* snap = nullptr;
  int batch_rows = 1;
  MorselPlanInfo plan;
  VecQueryPlan vplan;  ///< empty unless the batched branch runs

  const VecQueryPlan* vec() const { return vplan.any ? &vplan : nullptr; }
  const gov::QueryLimits* limits() const { return udf.limits; }
};

namespace {

/// Evaluates a TVF source's arguments and materializes its rows, charging
/// the boundary costs to `udf.stats` and governing the call by the scan's
/// limits.
Result<std::vector<std::vector<Value>>> MaterializeTvf(const ScanEnv& env,
                                                       const UdfContext& udf) {
  const Query& q = *env.q;
  EvalContext ctx;
  ctx.variables = env.variables;
  ctx.udf = udf;
  std::vector<Value> args;
  for (const ExprPtr& a : q.tvf_args) {
    SQLARRAY_ASSIGN_OR_RETURN(Value v, Eval(*a, ctx));
    args.push_back(std::move(v));
  }
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<std::vector<Value>> rows,
                            q.tvf->fn(args, ctx.udf));
  // The hosted TVF streams every produced row across the CLR boundary.
  QueryStats* stats = udf.stats;
  const CostModel& cost = *env.cost;
  stats->udf_calls++;
  double charge_ns =
      cost.clr_call_ns + cost.tvf_row_ns * static_cast<double>(rows.size());
  stats->ChargeCpuNs(charge_ns);
  if (stats->track_udf_detail) {
    QueryStats::UdfFnStats& d =
        stats->udf_by_fn[q.tvf->schema + "." + q.tvf->name];
    d.calls++;
    d.cpu_ns += charge_ns;
  }
  return rows;
}

/// One morsel's rows as the row loops read them: a cursor over a slice of
/// the table's leaf pages or, for the one morsel of a TVF source, the
/// function's materialized rows.
class MorselRows {
 public:
  explicit MorselRows(storage::BTree::Cursor cursor)
      : cursor_(std::move(cursor)) {}
  explicit MorselRows(std::vector<std::vector<Value>> tvf_rows)
      : tvf_rows_(std::move(tvf_rows)) {}

  bool valid() const {
    return cursor_ ? cursor_->valid() : tvf_pos_ < tvf_rows_.size();
  }
  /// Points the evaluation context at the current row.
  void Bind(EvalContext* ctx) const {
    if (cursor_) {
      ctx->row = cursor_->row().data();
    } else {
      ctx->value_row = &tvf_rows_[tvf_pos_];
    }
  }
  Status Next() {
    if (cursor_) return cursor_->Next();
    ++tvf_pos_;
    return Status::OK();
  }
  /// The table cursor the batched branch fills from (null for a TVF).
  storage::BTree::Cursor* cursor() { return cursor_ ? &*cursor_ : nullptr; }

 private:
  std::optional<storage::BTree::Cursor> cursor_;
  std::vector<std::vector<Value>> tvf_rows_;
  size_t tvf_pos_ = 0;
};

/// Opens one morsel's rows: a TVF source materializes (charging `udf`); a
/// table morsel reads its slice of the leaf pages through the statement's
/// snapshot when one is installed, else through the shared buffer pool
/// with readahead.
Result<MorselRows> OpenMorsel(const ScanEnv& env, const Morsel& m,
                              const UdfContext& udf) {
  if (env.q->tvf != nullptr) {
    SQLARRAY_ASSIGN_OR_RETURN(std::vector<std::vector<Value>> rows,
                              MaterializeTvf(env, udf));
    return MorselRows(std::move(rows));
  }
  std::vector<storage::PageId> chunk(env.plan.pages.begin() + m.page_begin,
                                     env.plan.pages.begin() + m.page_end);
  storage::BTree::Cursor cursor;
  if (env.snap != nullptr) {
    SQLARRAY_ASSIGN_OR_RETURN(
        cursor, env.q->table->ScanChunk(env.snap, std::move(chunk)));
  } else {
    SQLARRAY_ASSIGN_OR_RETURN(
        cursor, env.q->table->ScanChunk(env.udf.pool, std::move(chunk),
                                        kMorselReadahead));
  }
  return MorselRows(std::move(cursor));
}

/// The row loops' evaluation context: the table schema (none for a TVF,
/// whose rows arrive as values), the variables, and the morsel's UDF
/// context.
EvalContext RowContext(const ScanEnv& env, const UdfContext& udf) {
  EvalContext ctx;
  ctx.schema = env.q->table != nullptr ? &env.q->table->schema() : nullptr;
  ctx.variables = env.variables;
  ctx.udf = udf;
  return ctx;
}

/// The batched branch's reader over one morsel: gathers row blocks from the
/// cursor and filters them (columnar WHERE when it compiled, EvalBatch
/// otherwise), leaving the survivors in `sel`. The gather buffer and the
/// register file are charged against the statement budget for the morsel's
/// lifetime only, so a scan's budget need does not grow with its morsel
/// count.
class BatchScan {
 public:
  BatchScan(const ScanEnv& env, UdfContext* udf)
      : env_(env), rsz_(env.q->table->schema().row_size()) {
    bctx.schema = &env.q->table->schema();
    bctx.batch = &batch;
    bctx.variables = env.variables;
    bctx.udf = udf;
    bctx.byte_pool = &byte_pool_;
    bctx.arena = &arena;
  }
  ~BatchScan() {
    if (env_.limits() != nullptr) env_.limits()->Release(charged_);
  }
  BatchScan(const BatchScan&) = delete;
  BatchScan& operator=(const BatchScan&) = delete;

  /// Charges the morsel's scratch.
  Status Start() {
    charged_ = rsz_ * static_cast<int64_t>(env_.batch_rows);
    if (env_.vec() != nullptr) {
      charged_ += VecPlanFootprint(*env_.vec(), env_.batch_rows);
    }
    return GovCharge(env_.limits(), charged_);
  }

  /// Gathers and filters the next block; false once the morsel is drained.
  Result<bool> Next(storage::BTree::Cursor& cursor) {
    SQLARRAY_RETURN_IF_ERROR(GovCheck(env_.limits()));
    batch.Reset(rsz_, env_.batch_rows);
    SQLARRAY_RETURN_IF_ERROR(FillBatchFromCursor(cursor, &batch));
    if (batch.size() == 0) return false;
    QueryStats* stats = bctx.udf->stats;
    stats->rows_scanned += batch.size();
    for (int32_t i = 0; i < batch.size(); ++i) {
      stats->ChargeCpuNs(env_.cost->row_scan_ns);
    }
    const VecQueryPlan* vplan = env_.vec();
    if (vplan != nullptr) {
      VecBatchesCounter().Add(1);
      VecRowsCounter().Add(batch.size());
    }
    if (vplan != nullptr && vplan->where_ok) {
      SQLARRAY_RETURN_IF_ERROR(vec::VecFilter(vplan->where, batch,
                                              &vscratch.regs, &vscratch.trunc,
                                              &sel));
      bctx.sel = nullptr;
    } else {
      SQLARRAY_RETURN_IF_ERROR(FilterBatch(*env_.q, &bctx, &keep_col_, &sel));
      if (vplan != nullptr && env_.q->where != nullptr) {
        VecFallbackRowsCounter().Add(batch.size());
      }
    }
    stats->rows_kept += static_cast<int64_t>(sel.size());
    return true;
  }

  RowBatch batch;
  BatchContext bctx;
  EvalArena arena;
  std::vector<int32_t> sel;
  VecScratch vscratch;

 private:
  const ScanEnv& env_;
  const int64_t rsz_;
  int64_t charged_ = 0;
  ByteBufferPool byte_pool_;
  std::vector<Value> keep_col_;
};

/// Partial result of one morsel of an aggregation.
struct AggPartial {
  std::map<std::string, GroupAcc> groups;
  QueryStats stats;
};

/// Folds one morsel's rows into an aggregation partial: ungrouped table
/// queries take the batched branch when BatchedScan allows, everything else
/// the row loop.
Status AggregateChunk(const ScanEnv& env, UdfContext& udf,
                      MorselRows rows, AggPartial* out) {
  const Query& q = *env.q;
  const CostModel& cost = *env.cost;
  const size_t n_items = q.items.size();

  if (BatchedScan(q, env.batch_rows)) {
    storage::BTree::Cursor& cursor = *rows.cursor();
    BatchScan scan(env, &udf);
    SQLARRAY_RETURN_IF_ERROR(scan.Start());
    const VecQueryPlan* vplan = env.vec();
    std::vector<Value> col;
    while (true) {
      SQLARRAY_ASSIGN_OR_RETURN(bool more, scan.Next(cursor));
      if (!more) break;
      if (scan.sel.empty()) continue;
      GroupAcc& group = out->groups[""];
      group.aggs.resize(n_items);
      for (size_t i = 0; i < n_items; ++i) {
        const SelectItem& item = q.items[i];
        AggState& st = group.aggs[i];
        if (item.agg == SelectItem::AggKind::kNone) {
          // Plain items evaluate once, on the first row that survives the
          // filter — the row loop's first-kept-row semantics.
          if (!group.plain_filled) {
            std::vector<int32_t> first_sel(1, scan.sel[0]);
            scan.bctx.sel = &first_sel;
            SQLARRAY_RETURN_IF_ERROR(EvalBatch(*item.expr, scan.bctx, &col));
            group.plain_items.resize(n_items);
            group.plain_items[i] = std::move(col[0]);
          }
          continue;
        }
        if (IsCountStar(item)) {
          st.count += static_cast<int64_t>(scan.sel.size());
          continue;
        }
        if (vplan != nullptr && vplan->items[i] != nullptr) {
          SQLARRAY_RETURN_IF_ERROR(
              vplan->items[i]->Run(scan.batch, &scan.sel, &scan.vscratch.regs));
          for (size_t k = 0; k < scan.sel.size(); ++k) {
            out->stats.agg_steps++;
            out->stats.ChargeCpuNs(cost.native_agg_step_ns);
          }
          SQLARRAY_RETURN_IF_ERROR(VecAccumulateColumn(
              item.agg, vplan->items[i]->Result(scan.vscratch.regs), &st));
          continue;
        }
        scan.bctx.sel = &scan.sel;
        SQLARRAY_RETURN_IF_ERROR(EvalBatch(*item.expr, scan.bctx, &col));
        if (vplan != nullptr) {
          VecFallbackRowsCounter().Add(static_cast<int64_t>(scan.sel.size()));
        }
        for (const Value& v : col) {
          out->stats.agg_steps++;
          out->stats.ChargeCpuNs(cost.native_agg_step_ns);
          SQLARRAY_RETURN_IF_ERROR(AccumulateNative(item.agg, v, &st));
        }
      }
      group.plain_filled = true;
    }
    return Status::OK();
  }

  EvalContext ctx = RowContext(env, udf);
  while (rows.valid()) {
    SQLARRAY_RETURN_IF_ERROR(GovCheck(env.limits()));
    rows.Bind(&ctx);
    out->stats.rows_scanned++;
    out->stats.ChargeCpuNs(cost.row_scan_ns);
    SQLARRAY_ASSIGN_OR_RETURN(bool keep, RowPasses(q, ctx));
    if (keep) {
      out->stats.rows_kept++;
      SQLARRAY_RETURN_IF_ERROR(GroupAndFoldRow(
          q, cost, env.registry, env.limits(), ctx, &out->groups));
    }
    SQLARRAY_RETURN_IF_ERROR(rows.Next());
  }
  return Status::OK();
}

/// Folds one morsel's rows into a row-mode result buffer. TOP caps the
/// buffer at q.top rows (no later morsel can contribute more than that to
/// the output prefix) and keeps the early-exit row loop; otherwise the
/// executor's batch setting applies.
Status RowsChunk(const ScanEnv& env, UdfContext& udf, MorselRows source,
                 std::vector<std::vector<Value>>* rows) {
  const Query& q = *env.q;
  const CostModel& cost = *env.cost;
  const size_t n_items = q.items.size();
  QueryStats* stats = udf.stats;

  if (BatchedScan(q, env.batch_rows)) {
    storage::BTree::Cursor& cursor = *source.cursor();
    BatchScan scan(env, &udf);
    SQLARRAY_RETURN_IF_ERROR(scan.Start());
    const VecQueryPlan* vplan = env.vec();
    while (true) {
      SQLARRAY_ASSIGN_OR_RETURN(bool more, scan.Next(cursor));
      if (!more) break;
      if (scan.sel.empty()) continue;
      scan.bctx.sel = &scan.sel;
      // Evaluate every item column, then stitch output rows together.
      ColumnGuard guard(&scan.arena);
      std::vector<std::vector<Value>*> cols;
      cols.reserve(n_items);
      for (size_t i = 0; i < n_items; ++i) {
        cols.push_back(guard.Borrow());
        if (vplan != nullptr && vplan->items[i] != nullptr) {
          SQLARRAY_RETURN_IF_ERROR(
              vplan->items[i]->Run(scan.batch, &scan.sel, &scan.vscratch.regs));
          vec::ColumnToValues(vplan->items[i]->Result(scan.vscratch.regs),
                              cols[i]);
          continue;
        }
        SQLARRAY_RETURN_IF_ERROR(
            EvalBatch(*q.items[i].expr, scan.bctx, cols[i]));
        if (vplan != nullptr) {
          VecFallbackRowsCounter().Add(static_cast<int64_t>(scan.sel.size()));
        }
      }
      SQLARRAY_RETURN_IF_ERROR(GovCharge(
          env.limits(),
          static_cast<int64_t>(scan.sel.size()) * RowFootprint(n_items)));
      for (size_t k = 0; k < scan.sel.size(); ++k) {
        std::vector<Value> row;
        row.reserve(n_items);
        for (size_t i = 0; i < n_items; ++i) {
          row.push_back(std::move((*cols[i])[k]));
        }
        rows->push_back(std::move(row));
      }
    }
    return Status::OK();
  }

  EvalContext ctx = RowContext(env, udf);
  while (source.valid()) {
    SQLARRAY_RETURN_IF_ERROR(GovCheck(env.limits()));
    if (q.top >= 0 && static_cast<int64_t>(rows->size()) >= q.top) break;
    source.Bind(&ctx);
    stats->rows_scanned++;
    stats->ChargeCpuNs(cost.row_scan_ns);
    SQLARRAY_ASSIGN_OR_RETURN(bool keep, RowPasses(q, ctx));
    if (keep) {
      stats->rows_kept++;
      SQLARRAY_RETURN_IF_ERROR(GovCharge(env.limits(), RowFootprint(n_items)));
      std::vector<Value> row;
      row.reserve(n_items);
      for (const SelectItem& item : q.items) {
        SQLARRAY_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, ctx));
        row.push_back(std::move(v));
      }
      rows->push_back(std::move(row));
    }
    SQLARRAY_RETURN_IF_ERROR(source.Next());
  }
  return Status::OK();
}

}  // namespace

Result<ResultSet> Executor::Execute(const Query& q,
                                    std::map<std::string, Value>* variables) {
  return Execute(q, variables, nullptr);
}

Result<ResultSet> Executor::Execute(const Query& q,
                                    std::map<std::string, Value>* variables,
                                    QueryContext* qctx) {
  if (qctx == nullptr) return ExecuteInternal(q, variables, nullptr);
  // Bind the statement's serial lane for the whole execution; morsel bodies
  // rebind their worker thread to per-morsel lanes underneath this.
  obs::ScopedTrace serial_lane(&qctx->trace, obs::kSerialLane);
  SQLARRAY_SPAN("exec.query");
  obs::MetricsSnapshot metrics_before;
  if (qctx->collect_profile) {
    metrics_before = obs::MetricsRegistry::Global().Snapshot();
  }
  SQLARRAY_ASSIGN_OR_RETURN(ResultSet rs,
                            ExecuteInternal(q, variables, qctx));
  qctx->stats = rs.stats;
  if (qctx->collect_profile) {
    BuildProfile(q, rs, metrics_before, variables, qctx);
  }
  return rs;
}

Result<ResultSet> Executor::ExecuteInternal(
    const Query& q, std::map<std::string, Value>* variables,
    QueryContext* qctx) {
  ResultSet rs;
  rs.stats.track_udf_detail = qctx != nullptr && qctx->collect_profile;
  if (q.table == nullptr && q.tvf == nullptr) {
    // FROM-less SELECT: evaluate each item once.
    SQLARRAY_SPAN("exec.eval");
    std::vector<Value> row;
    for (const SelectItem& item : q.items) {
      if (item.agg != SelectItem::AggKind::kNone) {
        return Status::InvalidArgument("aggregate without a FROM clause");
      }
      SQLARRAY_ASSIGN_OR_RETURN(
          Value v, EvalStandalone(*item.expr, variables, &rs.stats));
      row.push_back(std::move(v));
      rs.columns.push_back(item.label);
    }
    rs.rows.push_back(std::move(row));
    return rs;
  }
  for (const SelectItem& item : q.items) rs.columns.push_back(item.label);
  Stopwatch watch;
  storage::IoStats io_before = db_->disk()->stats();
  // Every FROM source takes the morsel pipeline (at 1 worker it runs
  // inline, so results are bit-identical at every worker count).
  const bool aggregate = HasAggregates(q) || !q.group_by.empty();
  SQLARRAY_RETURN_IF_ERROR(aggregate ? ExecuteAggregate(q, variables, qctx, &rs)
                                     : ExecuteRows(q, variables, qctx, &rs));
  rs.stats.io = db_->disk()->stats() - io_before;
  rs.stats.wall_seconds = watch.ElapsedSeconds();
  return rs;
}

void Executor::BuildProfile(const Query& q, const ResultSet& rs,
                            const obs::MetricsSnapshot& metrics_before,
                            std::map<std::string, Value>* variables,
                            QueryContext* qctx) {
  const QueryStats& stats = rs.stats;
  obs::MetricsSnapshot now = obs::MetricsRegistry::Global().Snapshot();

  // The plan label is derived from the query shape alone — never from which
  // code path happened to run — so the tree is identical at every worker
  // count and batch size.
  const bool from_less = q.table == nullptr && q.tvf == nullptr;
  const bool has_agg = HasAggregates(q) || !q.group_by.empty();
  const char* plan = from_less ? "values"
                     : has_agg
                         ? (q.group_by.empty() ? "aggregate" : "group-by")
                         : "project";

  obs::ProfileNode* root = qctx->profile.mutable_root();
  root->op = "select";
  root->detail = plan;
  root->counters.rows_out = static_cast<int64_t>(rs.rows.size());
  root->counters.udf_calls = stats.udf_calls;
  root->counters.udf_bytes = stats.udf_bytes_marshaled;
  root->counters.kernel_dispatches =
      now.Delta(metrics_before, "core.dispatch.kernel");
  root->counters.boxed_dispatches =
      now.Delta(metrics_before, "core.dispatch.boxed");
  root->counters.modeled_seconds = stats.ModeledSeconds(cost_);
  root->counters.wall_seconds = stats.wall_seconds;

  // Per-operator vectorized-vs-row mode, re-derived from the dispatch rules
  // and a compile probe — a pure function of the query shape, the bound
  // variables, and executor settings, so the tree stays deterministic at
  // every worker count. An operator reads "vectorized" when the batched
  // branch runs AND its expression compiles to a columnar program.
  const bool batched_eval = vectorized_ && BatchedScan(q, batch_rows_);

  obs::ProfileNode* parent = root;
  if (!from_less) {
    if (has_agg) {
      bool vec_agg = false;
      if (batched_eval) {
        vec::VecProgram probe;
        for (const SelectItem& item : q.items) {
          if (item.agg == SelectItem::AggKind::kNone ||
              item.agg == SelectItem::AggKind::kUda || IsCountStar(item) ||
              item.expr == nullptr) {
            continue;
          }
          if (vec::VecProgram::Compile(*item.expr, q.table->schema(),
                                       variables, &probe)) {
            vec_agg = true;
            break;
          }
        }
      }
      obs::ProfileNode* agg =
          parent->AddChild(q.group_by.empty() ? "aggregate" : "group-by",
                           vec_agg ? "vectorized" : "row");
      agg->counters.rows_in = stats.rows_kept;
      agg->counters.rows_out = static_cast<int64_t>(rs.rows.size());
      agg->counters.modeled_seconds = static_cast<double>(stats.agg_steps) *
                                      cost_.native_agg_step_ns * 1e-9;
      agg->counters.wall_seconds =
          static_cast<double>(qctx->trace.TotalWallNs("exec.merge")) * 1e-9;
      parent = agg;
    }
    if (q.where != nullptr) {
      bool vec_filter = false;
      if (batched_eval) {
        vec::VecProgram probe;
        vec_filter = vec::VecProgram::Compile(*q.where, q.table->schema(),
                                              variables, &probe);
      }
      obs::ProfileNode* filter =
          parent->AddChild("filter", vec_filter ? "vectorized" : "row");
      filter->counters.rows_in = stats.rows_scanned;
      filter->counters.rows_out = stats.rows_kept;
      parent = filter;
    }
    obs::ProfileNode* scan = parent->AddChild(
        "scan", q.table != nullptr
                    ? q.table->name()
                    : "tvf " + q.tvf->schema + "." + q.tvf->name);
    scan->counters.rows_out = stats.rows_scanned;
    scan->counters.pages_read = stats.io.pages_read;
    scan->counters.cache_hits =
        now.Delta(metrics_before, "storage.buffer_pool.hits");
    scan->counters.cache_misses =
        now.Delta(metrics_before, "storage.buffer_pool.misses");
    scan->counters.modeled_seconds =
        static_cast<double>(stats.rows_scanned) * cost_.row_scan_ns * 1e-9;
    scan->counters.wall_seconds =
        static_cast<double>(qctx->trace.TotalWallNs("exec.scan") +
                            qctx->trace.TotalWallNs("exec.scan.morsel")) *
        1e-9;
  }

  // UDF boundary attribution: one child of the root per "schema.function",
  // in key order (std::map) so the shape is deterministic.
  for (const auto& [fn, d] : stats.udf_by_fn) {
    obs::ProfileNode* udf = root->AddChild("udf", fn);
    udf->counters.udf_calls = d.calls;
    udf->counters.udf_bytes = d.bytes;
    udf->counters.modeled_seconds = d.cpu_ns * 1e-9;
  }

  // Columnar-pipeline summary: one root child when any vectorized batches
  // ran during this statement (registry deltas, like the dispatch
  // counters). fallback_rows counts per-expression drops to the batched
  // row evaluator, so it can exceed rows when several items fall back.
  const int64_t vec_batches = now.Delta(metrics_before, "vec.batches");
  if (vec_batches > 0) {
    const int64_t vec_rows = now.Delta(metrics_before, "vec.rows");
    const int64_t vec_fallback = now.Delta(metrics_before, "vec.fallback_rows");
    obs::ProfileNode* vn = root->AddChild(
        "vec", "batches=" + std::to_string(vec_batches) +
                   " fallback_rows=" + std::to_string(vec_fallback));
    vn->counters.rows_in = vec_rows;
    vn->counters.rows_out = vec_rows;
  }
}

void Executor::RunOnWorkers(int workers, const std::function<void(int)>& fn) {
  if (workers <= 1) {
    // Inline execution: no thread dispatch, but the identical morsel grid
    // and merge order, so the result is the parallel result.
    fn(0);
    return;
  }
  // The pool accepts one job at a time; concurrent sessions' parallel scans
  // queue here rather than corrupting the pool's job state.
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (worker_pool_ == nullptr) worker_pool_ = std::make_unique<WorkerPool>();
  worker_pool_->Run(workers, fn);
}

Result<ScanEnv> Executor::PlanScan(const Query& q,
                                   std::map<std::string, Value>* variables,
                                   QueryContext* qctx) {
  ScanEnv env;
  env.q = &q;
  env.cost = &cost_;
  env.registry = registry_;
  env.variables = variables;
  env.udf.pool = db_->buffer_pool();
  env.udf.cost = &cost_;
  env.udf.subquery = subquery_fn_;
  env.udf.limits = qctx != nullptr ? &qctx->limits : nullptr;
  env.snap = SnapOf(qctx);
  env.batch_rows = batch_rows_;
  SQLARRAY_ASSIGN_OR_RETURN(
      env.plan,
      PlanMorselScan(q, scan_workers_, min_pages_per_worker_, env.snap));
  // One compiled columnar plan per statement, shared read-only by every
  // morsel worker (each worker owns its register scratch), built only when
  // the batched branch can run.
  if (vectorized_ && BatchedScan(q, batch_rows_)) {
    env.vplan = BuildVecPlan(q, variables, /*rows_mode=*/!HasAggregates(q));
  }
  return env;
}

Status Executor::RunMorselScan(
    const ScanEnv& env, QueryContext* qctx,
    const std::function<Status(const Morsel&)>& body) {
  // A TVF grid has no pages; its one morsel stands for the function's rows.
  MorselQueue queue(env.q->tvf != nullptr ? 1 : env.plan.pages.size(),
                    env.plan.morsel_pages, env.plan.workers);
  if (queue.morsel_count() == 0) return Status::OK();
  std::vector<Status> morsel_status(queue.morsel_count());
  std::atomic<bool> abort{false};
  obs::TraceSink* trace = qctx != nullptr ? &qctx->trace : nullptr;
  const gov::QueryLimits* limits =
      qctx != nullptr && qctx->limits.governed() ? &qctx->limits : nullptr;
  RunOnWorkers(env.plan.workers, [&](int w) {
    // Pool workers inherit the statement's governance for the scan so deep
    // kernels (CheckThreadCancel) see it without parameter plumbing.
    gov::ScopedThreadLimits thread_limits(limits);
    Morsel m;
    while (queue.Next(w, &m)) {
      if (abort.load(std::memory_order_relaxed)) break;
      if (limits != nullptr) {
        Status st = limits->Check();
        if (!st.ok()) {
          morsel_status[m.index] = std::move(st);
          abort.store(true, std::memory_order_relaxed);
          break;
        }
      }
      // Each morsel's spans land on a lane equal to its morsel index, so
      // the stitched trace is a pure function of the grid — not of which
      // worker (or how many) ran it.
      obs::ScopedTrace lane(trace, static_cast<int64_t>(m.index));
      SQLARRAY_SPAN("exec.scan.morsel");
      Status st = body(m);
      if (!st.ok()) {
        // Each morsel index is handed out once, so this write is unshared.
        morsel_status[m.index] = std::move(st);
        abort.store(true, std::memory_order_relaxed);
      }
    }
  });
  // Surface the first failure in morsel order (== scan order at 1 worker).
  for (Status& st : morsel_status) {
    SQLARRAY_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

Status Executor::ExecuteAggregate(const Query& q,
                                  std::map<std::string, Value>* variables,
                                  QueryContext* qctx, ResultSet* rs) {
  SQLARRAY_ASSIGN_OR_RETURN(ScanEnv env, PlanScan(q, variables, qctx));
  std::vector<AggPartial> partials(env.plan.n_morsels);
  for (AggPartial& p : partials) {
    p.stats.track_udf_detail = rs->stats.track_udf_detail;
  }
  SQLARRAY_RETURN_IF_ERROR(
      RunMorselScan(env, qctx, [&](const Morsel& m) -> Status {
        AggPartial& out = partials[m.index];
        UdfContext udf = env.udf;
        udf.stats = &out.stats;
        SQLARRAY_ASSIGN_OR_RETURN(MorselRows rows, OpenMorsel(env, m, udf));
        return AggregateChunk(env, udf, std::move(rows), &out);
      }));

  // Merge the per-morsel partial groups in morsel-index order — the
  // deterministic merge that makes results (float sums included)
  // independent of the worker count. A group first seen in a morsel keeps
  // that morsel's plain items (the earliest row's values); the final
  // std::map iterates groups in serialized-key order.
  SQLARRAY_SPAN("exec.merge");
  const size_t n_items = q.items.size();
  std::map<std::string, GroupAcc> groups;
  for (AggPartial& p : partials) {
    for (auto& [key, g] : p.groups) {
      auto [it, fresh] = groups.try_emplace(key, std::move(g));
      if (fresh) continue;
      for (size_t i = 0; i < n_items; ++i) {
        it->second.aggs[i].Merge(g.aggs[i]);
      }
    }
    MergeStats(&rs->stats, p.stats);
  }
  UdfContext udf = env.udf;
  udf.stats = &rs->stats;
  return EmitGroups(q, &groups, udf, rs);
}

Status Executor::ExecuteRows(const Query& q,
                             std::map<std::string, Value>* variables,
                             QueryContext* qctx, ResultSet* rs) {
  SQLARRAY_ASSIGN_OR_RETURN(ScanEnv env, PlanScan(q, variables, qctx));
  struct RowsPartial {
    std::vector<std::vector<Value>> rows;
    QueryStats stats;
  };
  const size_t n_morsels = env.plan.n_morsels;
  std::vector<RowsPartial> partials(n_morsels);
  for (RowsPartial& p : partials) {
    p.stats.track_udf_detail = rs->stats.track_udf_detail;
  }

  // TOP short-circuit token: `frontier` counts consecutive completed
  // morsels from 0 and `prefix_rows` their surviving rows. A worker may
  // skip an UNSTARTED morsel m once prefix_rows >= top: the frontier
  // f <= m then, so the first `top` output rows all come from morsels
  // before m and m's buffer can never reach the output.
  std::mutex top_mu;
  std::vector<int64_t> morsel_rows(n_morsels, -1);
  size_t frontier = 0;
  std::atomic<int64_t> prefix_rows{0};
  auto mark_done = [&](size_t index, int64_t rows) {
    if (q.top < 0) return;
    std::lock_guard<std::mutex> lock(top_mu);
    morsel_rows[index] = rows;
    while (frontier < n_morsels && morsel_rows[frontier] >= 0) {
      prefix_rows.fetch_add(morsel_rows[frontier], std::memory_order_relaxed);
      ++frontier;
    }
  };

  SQLARRAY_RETURN_IF_ERROR(
      RunMorselScan(env, qctx, [&](const Morsel& m) -> Status {
        RowsPartial& out = partials[m.index];
        if (q.top >= 0 &&
            prefix_rows.load(std::memory_order_relaxed) >= q.top) {
          mark_done(m.index, 0);  // skipped: cannot reach the output prefix
          return Status::OK();
        }
        UdfContext udf = env.udf;
        udf.stats = &out.stats;
        SQLARRAY_ASSIGN_OR_RETURN(MorselRows rows, OpenMorsel(env, m, udf));
        SQLARRAY_RETURN_IF_ERROR(
            RowsChunk(env, udf, std::move(rows), &out.rows));
        mark_done(m.index, static_cast<int64_t>(out.rows.size()));
        return Status::OK();
      }));

  // Gather per-morsel buffers in page order, truncated at TOP.
  SQLARRAY_SPAN("exec.merge");
  for (RowsPartial& p : partials) {
    for (std::vector<Value>& row : p.rows) {
      if (q.top >= 0 && static_cast<int64_t>(rs->rows.size()) >= q.top) break;
      rs->rows.push_back(std::move(row));
    }
    MergeStats(&rs->stats, p.stats);
  }
  return Status::OK();
}

}  // namespace sqlarray::engine
