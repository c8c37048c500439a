#include "src/core/trac.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "src/base/interner.h"
#include "src/base/logging.h"
#include "src/base/state_set.h"
#include "src/core/reachable.h"
#include "src/fa/dfa_reach.h"
#include "src/schema/witness.h"
#include "src/td/exec.h"

namespace xtc {
namespace {

// One obligation: top(T^{p}(t)) must drive A_sigma from `l` to `r`.
struct Obl {
  int p;
  int l;
  int r;

  auto operator<=>(const Obl&) const = default;
};

// A template's top level split into constant label segments and states:
// seps[0] s[0] seps[1] s[1] ... s[k-1] seps[k].
struct TopPattern {
  std::vector<int> states;
  std::vector<std::vector<int>> seps;
};

TopPattern SplitTop(const RhsHedge& rhs) {
  TopPattern out;
  out.seps.emplace_back();
  for (const RhsNode& n : rhs) {
    if (n.kind == RhsNode::Kind::kLabel) {
      out.seps.back().push_back(n.label);
    } else {
      out.states.push_back(n.state);
      out.seps.emplace_back();
    }
  }
  return out;
}

// One simulated copy of A_sigma during the hedge product: `state` is the
// transducer state whose output this copy tracks; `start` is the DFA state
// it begins in, or -1 when it must be guessed (within-obligation chaining).
struct Copy {
  int state;
  int start;
};

// How one obligation's copies are verified at the end of the hedge.
struct Group {
  int first_copy;                             // index of its first copy
  int count;                                  // number of copies (k_i >= 1)
  const std::vector<std::vector<int>>* seps;  // w_0..w_k, in patterns_
  int target;  // r_i, or -1 for a complement check
};

// One cell of a singleton row: target r and the entry id of the singleton
// configuration Sat(c, A_sigma, [(p, l, r)]).
struct RowCell {
  int r;
  int id;
};

class Engine {
 public:
  Engine(const Transducer& t, const Dtd& din, const Dtd& dout,
         const TypecheckOptions& options)
      : t_(t),
        din_(din),
        dout_(dout),
        options_(options),
        reach_(t, din),
        rule_pattern_(static_cast<std::size_t>(t.num_states()) *
                          static_cast<std::size_t>(din.num_symbols()),
                      kUnsplit),
        row_index_(static_cast<std::size_t>(din.num_symbols())) {}

  StatusOr<TypecheckResult> Run();

 private:
  struct Entry {
    // Sat configuration (is_top == false): exists t in L(din, b) meeting all
    // obligations against A_sigma. Top check (is_top == true): the rhs node
    // `u` of rule (q, a) labelled sigma can produce a child string rejected
    // by A_sigma.
    bool is_top = false;
    int b = -1;      // input symbol (Sat) / input symbol a (top)
    int sigma = -1;  // output DFA index
    std::vector<Obl> obls;                // Sat only
    const TopPattern* pattern = nullptr;  // top only, in patterns_
    int q = -1;                           // top only: the rule's state

    bool status = false;
    // Entries whose evaluation consulted this one while it was false; they
    // are re-queued when it flips. Insertion sites dedup consecutive adds
    // (the common repeat pattern); Solve's queued_ guard absorbs the rest.
    std::vector<int> dependents;
    // Witness: per child position, (input symbol, child config id or -1).
    std::vector<std::pair<int, int>> witness;
    bool has_witness = false;
  };

  const Dfa& OutDfa(int sigma) const { return dout_.RuleDfaComplete(sigma); }
  // Partial DFA: dead steps prune the child-symbol enumeration.
  const Dfa& InDfa(int b) const { return din_.RuleDfa(b); }

  // Demand-driven reachability over OutDfa(sigma): obligation targets r
  // with no path from l are unsatisfiable (the obligation constrains the
  // run delta*(l, top(T^p(t))), which only follows real edges), so the
  // singleton enumeration skips them. RuleDfaComplete's cached DFA is
  // address-stable after first use, so the borrowed pointer stays valid.
  const StateSet& OutReachable(int sigma, int from) {
    if (out_reach_.size() < static_cast<std::size_t>(sigma + 1)) {
      out_reach_.resize(static_cast<std::size_t>(sigma + 1));
    }
    std::unique_ptr<DfaReachability>& reach =
        out_reach_[static_cast<std::size_t>(sigma)];
    if (reach == nullptr) {
      reach = std::make_unique<DfaReachability>(&OutDfa(sigma));
    }
    return reach->From(from);
  }

  // Interns a Sat configuration; returns -1 when it is statically false
  // (contradictory obligations: one state, one start, two targets).
  // Sorts and dedups *obls in place; the caller's buffer is scratch.
  int GetSatConfig(int b, int sigma, std::vector<Obl>* obls);

  // SplitTop(rule(p, b)), computed once per run; nullptr when the rule is
  // absent (top(T^p(t)) = epsilon).
  const TopPattern* RulePattern(int p, int b);

  // The singleton row of (c, sigma, p, l): every target r reachable from l
  // in A_sigma, ascending, with the id of Sat(c, A_sigma, [(p, l, r)]).
  // Built on first use by interning those configurations in that order,
  // which is exactly where and how a per-target lookup would first create
  // them. Returns the row id, or -1 when building it crossed max_configs.
  int SingletonRow(int c, int sigma, int p, int l);
  std::span<const RowCell> Row(int row) const {
    const std::size_t b = row_begin_[static_cast<std::size_t>(row)];
    const std::size_t e = row_begin_[static_cast<std::size_t>(row) + 1];
    return std::span<const RowCell>(row_cells_.data() + b, e - b);
  }

  // Runs the worklist to the least fixpoint.
  Status Solve();

  // Evaluates entry `id` under current knowledge; true = satisfiable.
  StatusOr<bool> Eval(int id);

  // Expands a Sat entry's obligations into copies_/groups_. Returns false
  // if an obligation is statically violated (no copies case mismatch).
  bool ExpandSat(const Entry& e);

  // Shared hedge product search for entry `id` (with input symbol `b` and
  // output DFA `sigma`) over copies_/groups_. Returns true and stores the
  // witness into the entry if an accepting configuration is found. Entries
  // are addressed by id because interning child configurations may
  // reallocate entries_.
  StatusOr<bool> HedgeSearch(int id, int b, int sigma);

  Node* BuildConfigWitness(int id, TreeBuilder* builder,
                           std::size_t* budget) const;

  const Transducer& t_;
  const Dtd& din_;
  const Dtd& dout_;
  TypecheckOptions options_;
  ReachablePairs reach_;
  TypecheckStats stats_;

  // Records `dep` as a dependent of entry `id`, skipping consecutive
  // duplicates (the odometer re-consults the same child many times in a
  // row).
  void AddDependent(int id, int dep) {
    std::vector<int>& deps = entries_[static_cast<std::size_t>(id)].dependents;
    if (deps.empty() || deps.back() != dep) deps.push_back(dep);
  }

  std::vector<Entry> entries_;
  // Sat configurations interned by hashed key [b, sigma, (p,l,r)*];
  // sat_entry_ids_ maps the dense interner id to the entry id (top-check
  // entries share entries_, so the two id spaces differ by an offset map).
  SubsetInterner sat_ids_;
  std::vector<int> sat_entry_ids_;
  std::vector<int> sat_key_buf_;
  std::deque<int> worklist_;
  std::vector<bool> queued_;

  // Split rule templates and top-check patterns. A deque keeps element
  // addresses stable, so Groups and top-check entries point into it.
  static constexpr int kUnsplit = -1;
  static constexpr int kNoRule = -2;
  std::deque<TopPattern> patterns_;
  std::vector<int> rule_pattern_;  // (p, b) -> patterns_ index, or k* above

  // Singleton rows, contiguous in row_cells_: row i spans
  // [row_begin_[i], row_begin_[i + 1]). row_index_[sigma] maps (c, p, l)
  // to a row id (-1 = not built); it is allocated on sigma's first use.
  std::vector<std::vector<int>> row_index_;
  std::vector<RowCell> row_cells_;
  std::vector<std::size_t> row_begin_{0};

  // Scratch reused across Eval/HedgeSearch calls (they run once per
  // saturation entry evaluation; the inner loops must stay
  // allocation-free). Safe because neither reenters itself.
  struct Parent {
    int prev;
    int symbol;
    int child_cfg;
  };
  std::vector<Copy> copies_;
  std::vector<Group> groups_;
  std::vector<int> guess_slot_;  // per copy: index into guesses_, or -1
  std::vector<int> guesses_;
  std::vector<int> y0_;
  std::vector<int> y_;
  std::vector<Parent> parents_;
  std::vector<std::size_t> idx_;
  SubsetInterner cfg_ids_;
  std::vector<int> cfg_key_;
  std::vector<std::vector<RowCell>> cand_;  // per copy: true singletons
  std::vector<int> z_buf_;
  std::vector<Obl> single_obl_buf_;
  std::vector<Obl> child_obl_buf_;
  std::vector<std::unique_ptr<DfaReachability>> out_reach_;  // per sigma
};

Status ConfigBudgetError() {
  return ResourceExhaustedError(
      "trac engine exceeded the configuration budget (is the transducer "
      "outside T_trac?)");
}

int Engine::GetSatConfig(int b, int sigma, std::vector<Obl>* obls) {
  if (obls->size() > 1) {
    std::sort(obls->begin(), obls->end());
    obls->erase(std::unique(obls->begin(), obls->end()), obls->end());
  }
  // Contradiction: same transducer state and start, different targets — the
  // output string is a function of t, so no tree can satisfy both.
  for (std::size_t i = 1; i < obls->size(); ++i) {
    if ((*obls)[i].p == (*obls)[i - 1].p && (*obls)[i].l == (*obls)[i - 1].l &&
        (*obls)[i].r != (*obls)[i - 1].r) {
      return -1;
    }
  }
  sat_key_buf_.clear();
  sat_key_buf_.reserve(2 + 3 * obls->size());
  sat_key_buf_.push_back(b);
  sat_key_buf_.push_back(sigma);
  for (const Obl& obl : *obls) {
    sat_key_buf_.push_back(obl.p);
    sat_key_buf_.push_back(obl.l);
    sat_key_buf_.push_back(obl.r);
  }
  int iid = sat_ids_.Intern(sat_key_buf_);
  if (iid < static_cast<int>(sat_entry_ids_.size())) {
    return sat_entry_ids_[static_cast<std::size_t>(iid)];
  }
  int id = static_cast<int>(entries_.size());
  sat_entry_ids_.push_back(id);
  Entry e;
  e.b = b;
  e.sigma = sigma;
  e.obls = *obls;
  entries_.push_back(std::move(e));
  queued_.push_back(true);
  worklist_.push_back(id);
  ++stats_.configs;
  return id;
}

const TopPattern* Engine::RulePattern(int p, int b) {
  int& slot = rule_pattern_[static_cast<std::size_t>(p) *
                                static_cast<std::size_t>(din_.num_symbols()) +
                            static_cast<std::size_t>(b)];
  if (slot == kUnsplit) {
    const RhsHedge* rhs = t_.rule(p, b);
    if (rhs == nullptr) {
      slot = kNoRule;
    } else {
      slot = static_cast<int>(patterns_.size());
      patterns_.push_back(SplitTop(*rhs));
    }
  }
  return slot == kNoRule ? nullptr
                         : &patterns_[static_cast<std::size_t>(slot)];
}

int Engine::SingletonRow(int c, int sigma, int p, int l) {
  const int n_sigma = OutDfa(sigma).num_states();
  std::vector<int>& index = row_index_[static_cast<std::size_t>(sigma)];
  if (index.empty()) {
    index.assign(static_cast<std::size_t>(din_.num_symbols()) *
                     static_cast<std::size_t>(t_.num_states()) *
                     static_cast<std::size_t>(n_sigma),
                 -1);
  }
  int& row = index[(static_cast<std::size_t>(c) *
                        static_cast<std::size_t>(t_.num_states()) +
                    static_cast<std::size_t>(p)) *
                       static_cast<std::size_t>(n_sigma) +
                   static_cast<std::size_t>(l)];
  if (row >= 0) return row;
  // Only targets reachable from l in A_sigma can be satisfied.
  const StateSet& zreach = OutReachable(sigma, l);
  for (int r = 0; r < n_sigma; ++r) {
    if (!zreach.Test(r)) continue;
    single_obl_buf_.assign(1, Obl{p, l, r});
    int sid = GetSatConfig(c, sigma, &single_obl_buf_);
    if (stats_.configs > options_.max_configs) return -1;
    if (sid >= 0) row_cells_.push_back(RowCell{r, sid});
  }
  row = static_cast<int>(row_begin_.size()) - 1;
  row_begin_.push_back(row_cells_.size());
  return row;
}

bool Engine::ExpandSat(const Entry& e) {
  const Dfa& a_sigma = OutDfa(e.sigma);
  for (const Obl& obl : e.obls) {
    const TopPattern* pat = RulePattern(obl.p, e.b);
    if (pat == nullptr) {
      // top(T^p(t)) = epsilon: the obligation holds iff l == r.
      if (obl.l != obl.r) return false;
      continue;
    }
    if (pat->states.empty()) {
      // Constant top string: check it directly.
      if (a_sigma.Run(obl.l, pat->seps[0]) != obl.r) return false;
      continue;
    }
    Group g;
    g.first_copy = static_cast<int>(copies_.size());
    g.count = static_cast<int>(pat->states.size());
    g.seps = &pat->seps;
    g.target = obl.r;
    for (int j = 0; j < g.count; ++j) {
      Copy c;
      c.state = pat->states[static_cast<std::size_t>(j)];
      c.start = j == 0 ? a_sigma.Run(obl.l, pat->seps[0]) : -1;
      copies_.push_back(c);
    }
    groups_.push_back(g);
  }
  return true;
}

StatusOr<bool> Engine::HedgeSearch(int id, int b, int sigma) {
  const std::vector<Copy>& copies = copies_;
  const std::vector<Group>& groups = groups_;
  const Dfa& a_sigma = OutDfa(sigma);
  const Dfa& d_in = InDfa(b);
  const int k = static_cast<int>(copies.size());
  const int n_sigma = a_sigma.num_states();
  const StateSet& inhabited = din_.InhabitedSymbols();

  // Guessed starts: each copy with start == -1 owns one slot of guesses_.
  guess_slot_.assign(static_cast<std::size_t>(k), -1);
  int num_guesses = 0;
  for (int c = 0; c < k; ++c) {
    if (copies[static_cast<std::size_t>(c)].start == -1) {
      guess_slot_[static_cast<std::size_t>(c)] = num_guesses++;
    }
  }

  // Acceptance test for a product configuration (din state d, copy states y).
  auto accepts = [&](int d, const std::vector<int>& y,
                     const std::vector<int>& guesses) {
    if (!d_in.final(d)) return false;
    for (const Group& g : groups) {
      for (int j = 0; j < g.count; ++j) {
        int end = a_sigma.Run(y[static_cast<std::size_t>(g.first_copy + j)],
                              (*g.seps)[static_cast<std::size_t>(j) + 1]);
        if (j + 1 < g.count) {
          // Must equal the guessed start of the next copy in the chain.
          int gi = guess_slot_[static_cast<std::size_t>(g.first_copy + j + 1)];
          XTC_CHECK_GE(gi, 0);
          if (end != guesses[static_cast<std::size_t>(gi)]) return false;
        } else if (g.target >= 0) {
          if (end != g.target) return false;
        } else {
          // Complement acceptance (top check): the produced string must be
          // REJECTED by A_sigma.
          if (a_sigma.final(end)) return false;
        }
      }
    }
    return true;
  };

  if (d_in.initial() == Dfa::kDead) return false;

  Budget* budget = options_.budget;
  // The odometer is the innermost loop of the whole engine; a full Check()
  // per tick would dominate it, so polling is amortized through a gate.
  BudgetGate gate(budget);

  // Iterate over all guess vectors.
  std::vector<int>& guesses = guesses_;
  guesses.assign(static_cast<std::size_t>(num_guesses), 0);
  while (true) {
    // Product BFS from the initial configuration.
    std::vector<int>& y0 = y0_;
    y0.resize(static_cast<std::size_t>(k));
    for (int c = 0; c < k; ++c) {
      const int gi = guess_slot_[static_cast<std::size_t>(c)];
      y0[static_cast<std::size_t>(c)] =
          gi == -1 ? copies[static_cast<std::size_t>(c)].start
                   : guesses[static_cast<std::size_t>(gi)];
    }

    // Product configurations (d, y) are interned by hash; ids are dense and
    // assigned in discovery order, so an id cursor doubles as the BFS queue.
    SubsetInterner& cfg_ids = cfg_ids_;
    cfg_ids.Clear();
    std::vector<Parent>& parents = parents_;
    parents.clear();
    std::vector<int>& cfg_key = cfg_key_;
    auto intern = [&](int d, const std::vector<int>& y, Parent par) {
      cfg_key.clear();
      cfg_key.push_back(d);
      cfg_key.insert(cfg_key.end(), y.begin(), y.end());
      int id = cfg_ids.Intern(cfg_key);
      if (id < static_cast<int>(parents.size())) return -1;  // seen before
      parents.push_back(par);
      ++stats_.product_states;
      return id;
    };
    intern(d_in.initial(), y0, Parent{-1, -1, -1});
    int accept_id = -1;
    std::vector<int>& y = y_;
    for (int pid = 0; pid < cfg_ids.size() && accept_id == -1; ++pid) {
      XTC_RETURN_IF_ERROR(BudgetCheck(budget, "TypecheckTrac/HedgeSearch"));
      // Copy out: the interner pool may reallocate as new configurations
      // are minted below.
      const std::span<const int> stored = cfg_ids.Get(pid);
      const int d = stored[0];
      y.assign(stored.begin() + 1, stored.end());
      if (accepts(d, y, guesses)) {
        accept_id = pid;
        break;
      }
      if (stats_.product_states > options_.max_product_states_per_eval) {
        return ResourceExhaustedError(
            "trac engine exceeded the product-state budget (is the "
            "transducer outside T_trac?)");
      }
      for (int c = 0; c < din_.num_symbols(); ++c) {
        if (!inhabited.Test(c)) continue;
        int d2 = d_in.Step(d, c);
        if (d2 == Dfa::kDead) continue;
        // Per-copy candidate end states via singleton configurations: a
        // tree witnessing the joint configuration also witnesses each
        // singleton, so currently-false singletons cannot contribute (and
        // re-evaluation is scheduled for when they flip). This replaces the
        // n_sigma^k enumeration by a product of (typically tiny) sets.
        // cand_ is member scratch: inner vectors keep their capacity.
        if (cand_.size() < static_cast<std::size_t>(k)) {
          cand_.resize(static_cast<std::size_t>(k));
        }
        std::vector<std::vector<RowCell>>& cand = cand_;
        for (int i = 0; i < k; ++i) cand[static_cast<std::size_t>(i)].clear();
        bool dead_copy = false;
        for (int i = 0; i < k && !dead_copy; ++i) {
          const int row =
              SingletonRow(c, sigma, copies[static_cast<std::size_t>(i)].state,
                           y[static_cast<std::size_t>(i)]);
          if (row < 0) return ConfigBudgetError();
          for (const RowCell& cell : Row(row)) {
            if (entries_[static_cast<std::size_t>(cell.id)].status) {
              cand[static_cast<std::size_t>(i)].push_back(cell);
            } else {
              AddDependent(cell.id, id);
            }
          }
          if (cand[static_cast<std::size_t>(i)].empty()) dead_copy = true;
        }
        if (dead_copy) continue;
        // Joint enumeration over the candidate product.
        std::vector<std::size_t>& idx = idx_;
        idx.assign(static_cast<std::size_t>(k), 0);
        while (true) {
          XTC_RETURN_IF_ERROR(gate.Poll("TypecheckTrac/odometer"));
          std::vector<int>& z = z_buf_;
          z.resize(static_cast<std::size_t>(k));
          for (int i = 0; i < k; ++i) {
            const std::size_t u = static_cast<std::size_t>(i);
            z[u] = cand[u][idx[u]].r;
          }
          int cfg = -1;
          if (k == 1) {
            // The joint configuration is the singleton itself.
            cfg = cand[0][idx[0]].id;
          } else {
            std::vector<Obl>& child = child_obl_buf_;
            child.clear();
            for (int i = 0; i < k; ++i) {
              const std::size_t u = static_cast<std::size_t>(i);
              child.push_back(Obl{copies[u].state, y[u], z[u]});
            }
            cfg = GetSatConfig(c, sigma, &child);
            if (stats_.configs > options_.max_configs) {
              return ConfigBudgetError();
            }
          }
          if (cfg >= 0) {
            if (entries_[static_cast<std::size_t>(cfg)].status) {
              intern(d2, z, Parent{pid, c, cfg});
            } else {
              // Re-evaluate this entry when the child flips.
              AddDependent(cfg, id);
            }
          }
          // Odometer over the candidate indices.
          int pos = 0;
          while (pos < k) {
            if (++idx[static_cast<std::size_t>(pos)] <
                cand[static_cast<std::size_t>(pos)].size()) {
              break;
            }
            idx[static_cast<std::size_t>(pos)] = 0;
            ++pos;
          }
          if (pos == k) break;
        }
      }
    }
    if (accept_id != -1) {
      // Reconstruct the accepted child sequence.
      Entry& e = entries_[static_cast<std::size_t>(id)];
      e.witness.clear();
      for (int cur = accept_id;
           parents[static_cast<std::size_t>(cur)].prev != -1;
           cur = parents[static_cast<std::size_t>(cur)].prev) {
        e.witness.emplace_back(parents[static_cast<std::size_t>(cur)].symbol,
                               parents[static_cast<std::size_t>(cur)].child_cfg);
      }
      std::reverse(e.witness.begin(), e.witness.end());
      e.has_witness = true;
      return true;
    }
    // Next guess vector.
    std::size_t pos = 0;
    while (pos < guesses.size()) {
      if (++guesses[pos] < n_sigma) break;
      guesses[pos] = 0;
      ++pos;
    }
    if (pos == guesses.size()) return false;
  }
}

StatusOr<bool> Engine::Eval(int id) {
  ++stats_.evaluations;
  // Copy the immutable fields: entries_ may reallocate below.
  const bool is_top = entries_[static_cast<std::size_t>(id)].is_top;
  const int b = entries_[static_cast<std::size_t>(id)].b;
  const int sigma = entries_[static_cast<std::size_t>(id)].sigma;
  copies_.clear();
  groups_.clear();
  if (is_top) {
    const TopPattern& pattern = *entries_[static_cast<std::size_t>(id)].pattern;
    const Dfa& a_sigma = OutDfa(sigma);
    if (pattern.states.empty()) {
      return !a_sigma.Accepts(pattern.seps[0]);
    }
    Group g;
    g.first_copy = 0;
    g.count = static_cast<int>(pattern.states.size());
    g.seps = &pattern.seps;
    g.target = -1;  // complement acceptance
    for (int j = 0; j < g.count; ++j) {
      Copy c;
      c.state = pattern.states[static_cast<std::size_t>(j)];
      c.start = j == 0 ? a_sigma.Run(a_sigma.initial(), pattern.seps[0]) : -1;
      copies_.push_back(c);
    }
    groups_.push_back(g);
    return HedgeSearch(id, b, sigma);
  }
  if (!ExpandSat(entries_[static_cast<std::size_t>(id)])) return false;
  if (copies_.empty()) {
    return din_.InhabitedSymbols().Test(b);
  }
  return HedgeSearch(id, b, sigma);
}

Status Engine::Solve() {
  while (!worklist_.empty()) {
    XTC_RETURN_IF_ERROR(BudgetCheck(options_.budget, "TypecheckTrac/Solve"));
    int id = worklist_.front();
    worklist_.pop_front();
    queued_[static_cast<std::size_t>(id)] = false;
    if (entries_[static_cast<std::size_t>(id)].status) continue;
    StatusOr<bool> v = Eval(id);
    if (!v.ok()) return v.status();
    if (*v) {
      Entry& e = entries_[static_cast<std::size_t>(id)];
      e.status = true;
      for (int dep : e.dependents) {
        if (!queued_[static_cast<std::size_t>(dep)] &&
            !entries_[static_cast<std::size_t>(dep)].status) {
          queued_[static_cast<std::size_t>(dep)] = true;
          worklist_.push_back(dep);
        }
      }
    }
  }
  return Status::Ok();
}

Node* Engine::BuildConfigWitness(int id, TreeBuilder* builder,
                                 std::size_t* node_budget) const {
  if (*node_budget == 0) return nullptr;
  --*node_budget;
  const Entry& e = entries_[static_cast<std::size_t>(id)];
  XTC_CHECK(e.status);
  if (!e.has_witness) {
    // Witness construction is best-effort under a governor: exhaustion here
    // degrades to "no counterexample", not to a failed run.
    StatusOr<Node*> leaf =
        MinimalValidTree(din_, e.b, builder, options_.budget);
    return leaf.ok() ? *leaf : nullptr;
  }
  std::vector<Node*> kids;
  for (const auto& [symbol, child_cfg] : e.witness) {
    Node* child = BuildConfigWitness(child_cfg, builder, node_budget);
    if (child == nullptr) return nullptr;
    kids.push_back(child);
  }
  return builder->Make(e.b, kids);
}

StatusOr<TypecheckResult> Engine::Run() {
  XTC_CHECK_MSG(!t_.HasSelectors(),
                "compile selectors before typechecking (Theorems 23/29)");
  XTC_CHECK(t_.alphabet() == din_.alphabet() &&
            t_.alphabet() == dout_.alphabet());
  WallTimer timer;
  TypecheckResult result;
  result.arena = std::make_shared<Arena>();
  TreeBuilder builder(result.arena.get());
  // Charge witness-tree allocations against the caller's budget for the
  // duration of the run only — the arena escapes inside the result.
  ArenaBudgetScope arena_scope(result.arena, options_.budget);
  auto finalize = [&] {
    result.stats = stats_;
    if (options_.budget != nullptr) {
      result.stats.budget_checkpoints = options_.budget->checkpoints();
      result.stats.budget_bytes = options_.budget->bytes_charged();
      result.stats.elapsed_ms = options_.budget->elapsed_ms();
      result.stats.exhaustion = options_.budget->cause();
    } else {
      result.stats.elapsed_ms = timer.elapsed_ms();
    }
  };

  // Vacuous: empty input language.
  if (din_.LanguageEmpty()) {
    result.typechecks = true;
    finalize();
    return result;
  }

  // Root checks: T(t) is the single tree produced by rhs(q0, s_in); its
  // root label must be the output start symbol, and it must exist at all.
  const RhsHedge* root_rhs = t_.rule(t_.initial(), din_.start());
  if (root_rhs == nullptr || root_rhs->size() != 1 ||
      (*root_rhs)[0].kind != RhsNode::Kind::kLabel ||
      (*root_rhs)[0].label != dout_.start()) {
    result.typechecks = false;
    if (options_.want_counterexample) {
      StatusOr<Node*> tree =
          MinimalValidTree(din_, din_.start(), &builder, options_.budget);
      if (tree.ok()) result.counterexample = *tree;
    }
    finalize();
    return result;
  }

  // One top check per Sigma-labelled node of every reachable rule template.
  struct TopRef {
    int entry;
    int q;
    int a;
  };
  std::vector<TopRef> tops;
  for (const auto& [q, a] : reach_.pairs()) {
    const RhsHedge* rhs = t_.rule(q, a);
    if (rhs == nullptr) continue;
    // Walk all label nodes of the template.
    std::vector<const RhsNode*> stack;
    for (const RhsNode& n : *rhs) stack.push_back(&n);
    while (!stack.empty()) {
      const RhsNode* u = stack.back();
      stack.pop_back();
      if (u->kind != RhsNode::Kind::kLabel) continue;
      for (const RhsNode& c : u->children) stack.push_back(&c);
      Entry e;
      e.is_top = true;
      e.b = a;
      e.q = q;
      e.sigma = u->label;
      patterns_.push_back(SplitTop(u->children));
      e.pattern = &patterns_.back();
      int id = static_cast<int>(entries_.size());
      entries_.push_back(std::move(e));
      queued_.push_back(true);
      worklist_.push_back(id);
      ++stats_.configs;
      tops.push_back(TopRef{id, q, a});
    }
  }

  Status solve = Solve();
  if (!solve.ok()) return solve;

  result.typechecks = true;
  for (const TopRef& top : tops) {
    const Entry& e = entries_[static_cast<std::size_t>(top.entry)];
    if (!e.status) continue;
    result.typechecks = false;
    if (!options_.want_counterexample) break;
    // Build the violating subtree rooted at the input node (q, a).
    std::vector<Node*> kids;
    bool ok = true;
    if (e.has_witness) {
      std::size_t budget = std::size_t{1} << 20;
      for (const auto& [symbol, child_cfg] : e.witness) {
        Node* child = BuildConfigWitness(child_cfg, &builder, &budget);
        if (child == nullptr) {
          ok = false;
          break;
        }
        kids.push_back(child);
      }
    } else {
      std::optional<std::vector<int>> word = din_.ShortestUsableWord(top.a);
      XTC_CHECK(word.has_value());
      for (int b : *word) {
        StatusOr<Node*> kid =
            MinimalValidTree(din_, b, &builder, options_.budget);
        if (!kid.ok()) {
          ok = false;
          break;
        }
        kids.push_back(*kid);
      }
    }
    if (!ok) break;
    Node* subtree = builder.Make(top.a, kids);
    result.counterexample =
        reach_.EmbedWitness(top.q, top.a, subtree, &builder);
    break;
  }
  finalize();
  return result;
}

}  // namespace

StatusOr<TypecheckResult> TypecheckTrac(const Transducer& t, const Dtd& din,
                                        const Dtd& dout,
                                        const TypecheckOptions& options) {
  Engine engine(t, din, dout, options);
  return engine.Run();
}

}  // namespace xtc
