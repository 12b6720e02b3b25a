//! Cached, accelerated accuracy evaluation of quantization configurations.
//!
//! The framework's search algorithms re-test neighbouring configurations;
//! the [`Evaluator`] turns that structure into speed through three
//! mechanisms, all exact (see `docs/search_performance.md`):
//!
//! 1. **Canonical memoization** — configs are keyed by their
//!    [`CapsNet::canonical_config`] form, so configurations that select the
//!    same computation (e.g. `Q_DR = None` vs. the explicit `Qa` fallback)
//!    share one cache entry, and each distinct computation runs at most
//!    once. The memo is bounded ([`SearchAccel::memo_capacity`]) with
//!    least-recently-used eviction.
//! 2. **Prefix-activation reuse** — the staged forward API
//!    ([`StagedBackend::run_stage`]) checkpoints each stage's output per
//!    evaluation batch; a candidate that shares a layer prefix with a
//!    cached configuration on the same datapath re-runs only from the
//!    first stage whose `(Qw, Qa, rounding)` differs. This holds for every
//!    scheme: stochastic rounding is keyed per sample and rounding point,
//!    so each stage is a pure function of its input.
//! 3. **Early-exit scoring** — threshold probes ([`ConfigScorer::meets`])
//!    evaluate batch by batch and stop as soon as the verdict is decided:
//!    rejected when even a perfect score on the remaining samples cannot
//!    reach the floor, accepted once failure is impossible. Interrupted
//!    evaluations are memoized with their progress so a later exact
//!    [`Evaluator::accuracy`] call resumes instead of restarting.
//!
//! The evaluator is generic over the [`StagedBackend`] that runs the
//! stages: every [`CapsNet`] is one (the fake-quant reference), and
//! `qcn-intinfer`'s `IntBackend` runs the integer engine.

use qcn_capsnet::{argmax_caps, CapsNet, GroupInfo, LayerQuant, ModelQuant, QuantCtx};
use qcn_datasets::Dataset;
use qcn_fixed::RoundingScheme;
use qcn_tensor::parallel;
use qcn_tensor::Tensor;
use std::collections::HashMap;

/// Anything that can score a quantization configuration.
///
/// The search algorithms ([`crate::algorithms`]) are generic over this
/// trait: production code uses [`Evaluator`] (real model + dataset), while
/// the property tests drive the algorithms with synthetic oracles whose
/// accuracy surface is known in closed form.
pub trait ConfigScorer {
    /// Accuracy (fraction in `[0, 1]`) of the model under `config`.
    fn score(&mut self, config: &ModelQuant) -> f32;

    /// The model's quantization groups.
    fn groups(&self) -> Vec<GroupInfo>;

    /// Whether the model under `config` reaches `acc_min`.
    ///
    /// Must decide exactly as `score(config) >= acc_min` would, but
    /// implementations may reach the verdict with less work (e.g. the
    /// [`Evaluator`]'s early-exit scoring).
    fn meets(&mut self, config: &ModelQuant, acc_min: f32) -> bool {
        self.score(config) >= acc_min
    }

    /// [`meets`](ConfigScorer::meets) for a chunk of independent
    /// candidates, in order. Implementations may probe the candidates
    /// concurrently; each verdict must still equal what a standalone
    /// `meets` call would return.
    fn meets_batch(&mut self, configs: &[ModelQuant], acc_min: f32) -> Vec<bool> {
        configs.iter().map(|c| self.meets(c, acc_min)).collect()
    }

    /// How many speculative candidates a search loop should hand to
    /// [`meets_batch`](ConfigScorer::meets_batch) at once. The default of
    /// `1` reproduces a strictly sequential probe order.
    fn probe_width(&self) -> usize {
        1
    }
}

/// What the [`Evaluator`] needs of a model: its quantization groups, the
/// canonical form of a configuration, a model prepared for one
/// configuration, and one pipeline stage run on it.
///
/// Stage `s` is quantization group `s`. It maps the output of stage
/// `s − 1` (the input batch when `s == 0`) to its own output, and starts
/// with [`QuantCtx::enter_stage`], so its output is a pure function of its
/// input, of `config`'s first `s + 1` groups and of the datapath the
/// prepared model runs on. Chaining every stage is the full forward pass.
///
/// Every [`CapsNet`] is a backend: the fake-quant reference, whose
/// prepared form is [`CapsNet::with_quantized_weights`].
pub trait StagedBackend: Sync {
    /// A model prepared for one configuration.
    type Prepared;

    /// The quantization groups, one per stage, from input to output.
    fn quant_groups(&self) -> Vec<GroupInfo>;

    /// The form of `config` that two configurations selecting the same
    /// computation share (see [`CapsNet::canonical_config`]).
    fn canonical(&self, config: &ModelQuant) -> ModelQuant;

    /// Prepares the model for the canonical `config`.
    fn prepare(&self, config: &ModelQuant) -> Self::Prepared;

    /// Whether `prepared` runs on the backend's fallback datapath instead
    /// of its own. Stage outputs of the two may differ, so prefix
    /// checkpoints are never shared between them.
    fn is_fallback(&self, _prepared: &Self::Prepared) -> bool {
        false
    }

    /// Runs stage `stage` of `prepared` on `x`.
    fn run_stage(
        &self,
        prepared: &Self::Prepared,
        stage: usize,
        x: &Tensor,
        config: &ModelQuant,
        ctx: &mut QuantCtx,
    ) -> Tensor;
}

impl<M: CapsNet + Sync> StagedBackend for M {
    type Prepared = M;

    fn quant_groups(&self) -> Vec<GroupInfo> {
        self.groups()
    }

    fn canonical(&self, config: &ModelQuant) -> ModelQuant {
        self.canonical_config(config)
    }

    fn prepare(&self, config: &ModelQuant) -> M {
        self.with_quantized_weights(config)
    }

    fn run_stage(
        &self,
        prepared: &M,
        stage: usize,
        x: &Tensor,
        config: &ModelQuant,
        ctx: &mut QuantCtx,
    ) -> Tensor {
        prepared.infer_stage(stage, x, config, ctx)
    }
}

/// Tuning knobs of the [`Evaluator`]'s search acceleration.
///
/// The default enables everything; [`SearchAccel::naive`] reproduces the
/// pre-acceleration behaviour (full forward pass per distinct config,
/// exact-key memo only) and is what the `search` benchmark section compares
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchAccel {
    /// Reuse cached per-stage activation checkpoints for candidates that
    /// share a layer prefix (automatically disabled under stochastic
    /// rounding, where it would change the RNG stream).
    pub prefix_reuse: bool,
    /// Let threshold probes stop as soon as the pass/fail verdict is
    /// decided. Reported accuracies stay exact: interrupted evaluations
    /// are resumed, never restarted or approximated.
    pub early_exit: bool,
    /// Probe independent wordlength candidates concurrently through the
    /// deterministic `qcn-tensor` thread pool.
    pub parallel_probes: bool,
    /// Maximum number of memoized configurations (LRU eviction beyond it).
    pub memo_capacity: usize,
    /// Byte budget for cached prefix activations (LRU eviction beyond it).
    pub prefix_budget_bytes: usize,
}

impl Default for SearchAccel {
    fn default() -> Self {
        SearchAccel {
            prefix_reuse: true,
            early_exit: true,
            parallel_probes: true,
            memo_capacity: 4096,
            prefix_budget_bytes: 256 << 20,
        }
    }
}

impl SearchAccel {
    /// Every acceleration off: one full-dataset forward pass per distinct
    /// configuration, exact-key memoization only.
    pub fn naive() -> Self {
        SearchAccel {
            prefix_reuse: false,
            early_exit: false,
            parallel_probes: false,
            memo_capacity: usize::MAX,
            prefix_budget_bytes: 0,
        }
    }
}

/// Counters describing how an [`Evaluator`] spent (and saved) its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Distinct configurations actually probed (cache misses).
    pub evaluations: usize,
    /// Queries answered entirely from the memo.
    pub memo_hits: usize,
    /// Early-exited evaluations later resumed to completion.
    pub partial_resumes: usize,
    /// Probes accepted before the full dataset was seen.
    pub early_accepts: usize,
    /// Probes rejected before the full dataset was seen.
    pub early_rejects: usize,
    /// Evaluation batches started from a cached prefix checkpoint.
    pub prefix_hits: usize,
    /// Pipeline stages executed.
    pub stages_run: usize,
    /// Pipeline stages skipped thanks to prefix reuse.
    pub stages_skipped: usize,
    /// Memo entries evicted by the capacity bound.
    pub memo_evictions: usize,
    /// Prefix-cache entries evicted by the byte budget.
    pub prefix_evictions: usize,
    /// Parallel probes whose verdict turned out not to be needed (work a
    /// sequential search would not have done).
    pub speculative_probes: usize,
    /// Distinct configurations scored on the backend's fallback datapath
    /// (see [`StagedBackend::is_fallback`]).
    pub fallbacks: usize,
}

/// A memoized evaluation result: either a finished accuracy, or an
/// early-exited probe that can be resumed bit-exactly from its snapshot.
#[derive(Debug, Clone)]
enum Memo {
    Exact(f32),
    Partial(PartialEval),
}

#[derive(Debug, Clone)]
struct PartialEval {
    correct: usize,
    seen: usize,
    batches_done: usize,
}

/// Identifies a stage checkpoint: the first `depth` canonical layer
/// configs, plus everything else that can influence the prefix computation,
/// including the datapath it ran on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PrefixKey {
    depth: usize,
    prefix: Vec<LayerQuant>,
    scheme: RoundingScheme,
    seed: u64,
    fallback: bool,
}

#[derive(Debug)]
struct PrefixEntry {
    /// Stage-output tensors per evaluation batch, always a prefix of the
    /// batch sequence (entry `i` is batch `i`).
    acts: Vec<Tensor>,
    bytes: usize,
    touched: u64,
}

#[derive(Debug, Default)]
struct PrefixCache {
    entries: HashMap<PrefixKey, PrefixEntry>,
    bytes: usize,
    gen: u64,
    evictions: usize,
}

impl PrefixCache {
    /// Appends the checkpoint for batch `bi` if it extends the entry's
    /// contiguous batch prefix, then enforces the byte budget.
    fn append(&mut self, key: PrefixKey, bi: usize, act: Tensor, budget: usize) {
        if budget == 0 {
            return;
        }
        self.gen += 1;
        let gen = self.gen;
        let entry = self.entries.entry(key.clone()).or_insert(PrefixEntry {
            acts: Vec::new(),
            bytes: 0,
            touched: gen,
        });
        entry.touched = gen;
        if entry.acts.len() != bi {
            return; // already present, or out of order (parallel duplicate)
        }
        let cost = act.len() * std::mem::size_of::<f32>();
        entry.acts.push(act);
        entry.bytes += cost;
        self.bytes += cost;
        while self.bytes > budget && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
                .expect("more than one entry");
            let gone = self.entries.remove(&victim).expect("victim exists");
            self.bytes -= gone.bytes;
            self.evictions += 1;
        }
    }
}

/// Everything a probe needs, shareable across pool workers.
struct ProbeEnv<'b, B: StagedBackend> {
    backend: &'b B,
    dataset: &'b Dataset,
    batches: &'b [Vec<usize>],
    num_stages: usize,
    reuse: bool,
    early: bool,
    prefix: &'b PrefixCache,
}

#[derive(Debug, Default, Clone, Copy)]
struct ProbeDelta {
    prefix_hits: usize,
    stages_run: usize,
    stages_skipped: usize,
    early_accept: bool,
    early_reject: bool,
    fallback: bool,
}

struct ProbeOutcome {
    memo: Memo,
    /// `score >= acc_min` when a goal was given; `true` otherwise.
    verdict: bool,
    /// Stage checkpoints produced along the way, in batch order per key.
    checkpoints: Vec<(PrefixKey, usize, Tensor)>,
    delta: ProbeDelta,
}

fn prefix_key(config: &ModelQuant, depth: usize, fallback: bool) -> PrefixKey {
    PrefixKey {
        depth,
        prefix: config.layers[..depth].to_vec(),
        scheme: config.scheme,
        seed: config.seed,
        fallback,
    }
}

/// Evaluates `config` (already canonical) over the batch sequence, reusing
/// prefix checkpoints and stopping early when `goal` is decided. A pure
/// function of its inputs — safe to run concurrently for independent
/// candidates and bit-identical for every thread count.
fn run_probe<B: StagedBackend>(
    env: &ProbeEnv<'_, B>,
    config: &ModelQuant,
    resume: Option<&PartialEval>,
    goal: Option<f32>,
) -> ProbeOutcome {
    let total = env.dataset.len();
    let prepared = env.backend.prepare(config);
    let (mut correct, mut seen, start_batch) = match resume {
        Some(p) => (p.correct, p.seen, p.batches_done),
        None => (0, 0, 0),
    };
    // Every stage is a pure function of its input and config (stochastic
    // rounding is keyed per sample and rounding point), so checkpoints are
    // reusable and a resumed probe needs no rounding state.
    let mut ctx = QuantCtx::from_config(config);
    let reuse = env.reuse;
    let mut checkpoints = Vec::new();
    let mut delta = ProbeDelta {
        fallback: env.backend.is_fallback(&prepared),
        ..ProbeDelta::default()
    };
    // The shared cache is frozen for the whole probe (probes may run
    // concurrently), so contiguity of the checkpoints *we* produce has to
    // be tracked locally: `base[d-1]` batches were already cached for the
    // depth-`d` key, and `pushed[d-1]` more are in `checkpoints`.
    let keys: Vec<PrefixKey> = (1..env.num_stages)
        .map(|d| prefix_key(config, d, delta.fallback))
        .collect();
    let base: Vec<usize> = keys
        .iter()
        .map(|k| env.prefix.entries.get(k).map_or(0, |e| e.acts.len()))
        .collect();
    let mut pushed = vec![0usize; keys.len()];
    for bi in start_batch..env.batches.len() {
        let chunk = &env.batches[bi];
        let mut start_stage = 0usize;
        let mut start_act: Option<&Tensor> = None;
        if reuse {
            for depth in (1..env.num_stages).rev() {
                if let Some(e) = env.prefix.entries.get(&keys[depth - 1]) {
                    if e.acts.len() > bi {
                        start_stage = depth;
                        start_act = Some(&e.acts[bi]);
                        break;
                    }
                }
            }
        }
        let mut y = match start_act {
            Some(act) => {
                delta.prefix_hits += 1;
                delta.stages_skipped += start_stage;
                act.clone()
            }
            None => env.dataset.batch(chunk).0,
        };
        for s in start_stage..env.num_stages {
            y = env.backend.run_stage(&prepared, s, &y, config, &mut ctx);
            delta.stages_run += 1;
            let depth = s + 1;
            if reuse && depth < env.num_stages {
                let idx = depth - 1;
                if base[idx] + pushed[idx] == bi {
                    checkpoints.push((keys[idx].clone(), bi, y.clone()));
                    pushed[idx] += 1;
                }
            }
        }
        let preds = argmax_caps(&y);
        correct += preds
            .iter()
            .zip(chunk.iter().map(|&i| env.dataset.labels()[i]))
            .filter(|(p, l)| **p == *l)
            .count();
        seen += chunk.len();
        if env.early && bi + 1 < env.batches.len() {
            if let Some(t) = goal {
                // f32 division is weakly monotone in the integer numerator,
                // so both decisions below agree exactly with the verdict a
                // full evaluation would reach.
                let lower = correct as f32 / total as f32;
                let upper = (correct + (total - seen)) as f32 / total as f32;
                let verdict = if lower >= t {
                    delta.early_accept = true;
                    Some(true)
                } else if upper < t {
                    delta.early_reject = true;
                    Some(false)
                } else {
                    None
                };
                if let Some(verdict) = verdict {
                    return ProbeOutcome {
                        memo: Memo::Partial(PartialEval {
                            correct,
                            seen,
                            batches_done: bi + 1,
                        }),
                        verdict,
                        checkpoints,
                        delta,
                    };
                }
            }
        }
    }
    let acc = correct as f32 / total as f32;
    ProbeOutcome {
        memo: Memo::Exact(acc),
        verdict: goal.is_none_or(|t| acc >= t),
        checkpoints,
        delta,
    }
}

/// Evaluates quantized accuracy of one trained model on one dataset, with
/// canonical memoization, prefix-activation reuse and early-exit scoring
/// (see [`SearchAccel`]), on the datapath of its [`StagedBackend`].
///
/// # Examples
///
/// ```
/// use qcapsnets::Evaluator;
/// use qcn_capsnet::{ModelQuant, ShallowCaps, ShallowCapsConfig};
/// use qcn_datasets::SynthKind;
///
/// let model = ShallowCaps::new(ShallowCapsConfig::small(1), 0);
/// let test = SynthKind::Mnist.generate(20, 0);
/// let mut eval = Evaluator::new(&model, &test, 10);
/// let fp = ModelQuant::full_precision(3);
/// let a1 = eval.accuracy(&fp);
/// let a2 = eval.accuracy(&fp); // served from cache
/// assert_eq!(a1, a2);
/// assert_eq!(eval.stats().evaluations, 1);
/// assert_eq!(eval.stats().memo_hits, 1);
/// ```
#[derive(Debug)]
pub struct Evaluator<'a, B: StagedBackend> {
    backend: &'a B,
    dataset: &'a Dataset,
    accel: SearchAccel,
    groups: Vec<GroupInfo>,
    batches: Vec<Vec<usize>>,
    memo: HashMap<ModelQuant, (u64, Memo)>,
    memo_gen: u64,
    prefix: PrefixCache,
    stats: EvalStats,
}

impl<'a, B: StagedBackend> Evaluator<'a, B> {
    /// Creates an evaluator over `backend` and a labelled evaluation set,
    /// with the default [`SearchAccel`].
    ///
    /// # Panics
    ///
    /// Panics when the dataset is empty or `batch_size == 0`.
    pub fn new(backend: &'a B, dataset: &'a Dataset, batch_size: usize) -> Self {
        Evaluator::with_accel(backend, dataset, batch_size, SearchAccel::default())
    }

    /// Creates an evaluator with explicit acceleration settings.
    ///
    /// # Panics
    ///
    /// Panics when the dataset is empty or `batch_size == 0`.
    pub fn with_accel(
        backend: &'a B,
        dataset: &'a Dataset,
        batch_size: usize,
        accel: SearchAccel,
    ) -> Self {
        assert!(!dataset.is_empty(), "empty evaluation set");
        assert!(batch_size > 0, "batch size must be positive");
        let indices: Vec<usize> = (0..dataset.len()).collect();
        let batches = indices.chunks(batch_size).map(<[usize]>::to_vec).collect();
        Evaluator {
            backend,
            dataset,
            accel,
            groups: backend.quant_groups(),
            batches,
            memo: HashMap::new(),
            memo_gen: 0,
            prefix: PrefixCache::default(),
            stats: EvalStats::default(),
        }
    }

    /// Accuracy (fraction in `[0, 1]`) of the model under `config`: weights
    /// are quantized per-group from the trained FP32 parameters, then the
    /// dataset is classified with activation/routing quantization applied.
    /// Always exact — early-exited probes are resumed to completion, never
    /// approximated.
    pub fn accuracy(&mut self, config: &ModelQuant) -> f32 {
        let key = self.canonical(config);
        let resume = match self.memo.get(&key).map(|(_, m)| m.clone()) {
            Some(Memo::Exact(acc)) => return self.hit(&key, acc),
            Some(Memo::Partial(p)) => Some(p),
            None => None,
        };
        match self.probe(key, resume, None).0 {
            Memo::Exact(acc) => acc,
            Memo::Partial(_) => unreachable!("goal-less probes run to completion"),
        }
    }

    /// The full work/savings counters accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    fn canonical(&self, config: &ModelQuant) -> ModelQuant {
        let mut c = self.backend.canonical(config);
        if c.scheme != RoundingScheme::Stochastic {
            // Deterministic schemes never consume the RNG, so the seed
            // cannot influence the result.
            c.seed = 0;
        }
        c
    }

    /// Records a query answered from the memo, returning `answer`.
    fn hit<T>(&mut self, key: &ModelQuant, answer: T) -> T {
        self.stats.memo_hits += 1;
        self.memo_gen += 1;
        if let Some(slot) = self.memo.get_mut(key) {
            slot.0 = self.memo_gen;
        }
        answer
    }

    fn env(&self) -> ProbeEnv<'_, B> {
        ProbeEnv {
            backend: self.backend,
            dataset: self.dataset,
            batches: &self.batches,
            num_stages: self.groups.len(),
            reuse: self.accel.prefix_reuse,
            early: self.accel.early_exit,
            prefix: &self.prefix,
        }
    }

    /// Probes `key` from scratch or from `resume`, deciding `goal` when
    /// given, and applies the outcome. Returns the memo entry and verdict.
    fn probe(
        &mut self,
        key: ModelQuant,
        resume: Option<PartialEval>,
        goal: Option<f32>,
    ) -> (Memo, bool) {
        let out = run_probe(&self.env(), &key, resume.as_ref(), goal);
        let verdict = out.verdict;
        (self.merge(key, out, resume.is_none()), verdict)
    }

    /// Applies a probe's outcome: stats, new prefix checkpoints, memo
    /// entry. `fresh` distinguishes first probes from resumed ones.
    fn merge(&mut self, key: ModelQuant, out: ProbeOutcome, fresh: bool) -> Memo {
        self.stats.prefix_hits += out.delta.prefix_hits;
        self.stats.stages_run += out.delta.stages_run;
        self.stats.stages_skipped += out.delta.stages_skipped;
        self.stats.early_accepts += usize::from(out.delta.early_accept);
        self.stats.early_rejects += usize::from(out.delta.early_reject);
        if fresh {
            self.stats.evaluations += 1;
            self.stats.fallbacks += usize::from(out.delta.fallback);
        } else {
            self.stats.partial_resumes += 1;
        }
        for (k, bi, act) in out.checkpoints {
            self.prefix
                .append(k, bi, act, self.accel.prefix_budget_bytes);
        }
        self.stats.prefix_evictions = self.prefix.evictions;
        self.memo_insert(key, out.memo.clone());
        out.memo
    }

    fn memo_insert(&mut self, key: ModelQuant, memo: Memo) {
        self.memo_gen += 1;
        let gen = self.memo_gen;
        if !self.memo.contains_key(&key) && self.memo.len() >= self.accel.memo_capacity.max(1) {
            if let Some(oldest) = self
                .memo
                .iter()
                .min_by_key(|(_, (g, _))| *g)
                .map(|(k, _)| k.clone())
            {
                self.memo.remove(&oldest);
                self.stats.memo_evictions += 1;
            }
        }
        self.memo.insert(key, (gen, memo));
    }
}

impl<B: StagedBackend> ConfigScorer for Evaluator<'_, B> {
    fn score(&mut self, config: &ModelQuant) -> f32 {
        self.accuracy(config)
    }

    fn groups(&self) -> Vec<GroupInfo> {
        self.groups.clone()
    }

    fn meets(&mut self, config: &ModelQuant, acc_min: f32) -> bool {
        let key = self.canonical(config);
        let total = self.dataset.len();
        let resume = match self.memo.get(&key).map(|(_, m)| m.clone()) {
            Some(Memo::Exact(acc)) => return self.hit(&key, acc >= acc_min),
            Some(Memo::Partial(p)) => {
                let lower = p.correct as f32 / total as f32;
                let upper = (p.correct + (total - p.seen)) as f32 / total as f32;
                if lower >= acc_min || upper < acc_min {
                    return self.hit(&key, lower >= acc_min);
                }
                Some(p)
            }
            None => None,
        };
        self.probe(key, resume, Some(acc_min)).1
    }

    fn meets_batch(&mut self, configs: &[ModelQuant], acc_min: f32) -> Vec<bool> {
        if configs.len() <= 1 || !self.accel.parallel_probes || parallel::current_threads() <= 1 {
            return configs.iter().map(|c| self.meets(c, acc_min)).collect();
        }
        let keys: Vec<ModelQuant> = configs.iter().map(|c| self.canonical(c)).collect();
        let mut verdicts: Vec<Option<bool>> = vec![None; configs.len()];
        let mut jobs: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if self.memo.contains_key(key) {
                verdicts[i] = Some(self.meets(&configs[i], acc_min));
            } else {
                jobs.push(i);
            }
        }
        // Probe the unknown candidates concurrently. Each probe is a pure
        // function of its (canonical) config, so verdicts and memo values
        // are bit-identical to the sequential path for every thread count;
        // only which checkpoints get shared differs.
        let mut slots: Vec<Option<ProbeOutcome>> = Vec::new();
        slots.resize_with(jobs.len(), || None);
        {
            let env = self.env();
            let keys = &keys;
            let jobs = &jobs;
            parallel::par_chunks_mut(&mut slots, 1, 1, |j, slot| {
                slot[0] = Some(run_probe(&env, &keys[jobs[j]], None, Some(acc_min)));
            });
        }
        for (j, &i) in jobs.iter().enumerate() {
            let out = slots[j].take().expect("probe ran");
            verdicts[i] = Some(out.verdict);
            self.merge(keys[i].clone(), out, true);
        }
        let verdicts: Vec<bool> = verdicts
            .into_iter()
            .map(|v| v.expect("all candidates resolved"))
            .collect();
        if let Some(first_false) = verdicts.iter().position(|v| !v) {
            self.stats.speculative_probes += jobs.iter().filter(|&&i| i > first_false).count();
        }
        verdicts
    }

    fn probe_width(&self) -> usize {
        if self.accel.parallel_probes {
            parallel::current_threads().clamp(1, 8)
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcn_capsnet::{ShallowCaps, ShallowCapsConfig};
    use qcn_datasets::SynthKind;
    use qcn_fixed::RoundingScheme;

    #[test]
    fn cache_prevents_reevaluation() {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 0);
        let ds = SynthKind::Mnist.generate(20, 0);
        let mut eval = Evaluator::new(&model, &ds, 10);
        let a = ModelQuant::uniform(3, 8, RoundingScheme::Truncation);
        let b = ModelQuant::uniform(3, 8, RoundingScheme::RoundToNearest);
        eval.accuracy(&a);
        eval.accuracy(&a);
        eval.accuracy(&b);
        assert_eq!(eval.stats().evaluations, 2);
        assert_eq!(eval.stats().memo_hits, 1);
    }

    #[test]
    fn accuracy_is_in_unit_interval() {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 1);
        let ds = SynthKind::Mnist.generate(30, 1);
        let mut eval = Evaluator::new(&model, &ds, 15);
        for frac in [2u8, 6, 12] {
            let acc = eval.accuracy(&ModelQuant::uniform(3, frac, RoundingScheme::Stochastic));
            assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn canonical_dr_fallback_shares_memo_entry() {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 2);
        let ds = SynthKind::Mnist.generate(20, 2);
        let mut eval = Evaluator::new(&model, &ds, 10);
        let implicit = ModelQuant::uniform(3, 6, RoundingScheme::RoundToNearest);
        let mut explicit = implicit.clone();
        // Q_DR defaults to Qa on the routed layer: same computation.
        explicit.layers[2].dr_frac = Some(6);
        let a = eval.accuracy(&implicit);
        let b = eval.accuracy(&explicit);
        assert_eq!(a, b);
        assert_eq!(eval.stats().evaluations, 1);
        assert_eq!(eval.stats().memo_hits, 1);
    }

    #[test]
    fn early_exit_memo_resumes_to_exact_accuracy() {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 3);
        let ds = SynthKind::Mnist.generate(40, 3);
        let config = ModelQuant::uniform(3, 8, RoundingScheme::Truncation);
        let mut exact = Evaluator::with_accel(&model, &ds, 10, SearchAccel::naive());
        let reference = exact.accuracy(&config);
        let mut eval = Evaluator::new(&model, &ds, 10);
        // An untrained model is far from 100%: the probe rejects early.
        assert!(!eval.meets(&config, 1.01));
        assert_eq!(eval.stats().early_rejects, 1);
        // The exact accuracy resumes the interrupted evaluation.
        assert_eq!(eval.accuracy(&config), reference);
        assert_eq!(eval.stats().partial_resumes, 1);
        assert_eq!(eval.stats().evaluations, 1);
    }

    #[test]
    fn memo_eviction_respects_capacity() {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 4);
        let ds = SynthKind::Mnist.generate(20, 4);
        let accel = SearchAccel {
            memo_capacity: 2,
            ..SearchAccel::default()
        };
        let mut eval = Evaluator::with_accel(&model, &ds, 10, accel);
        let c = |f| ModelQuant::uniform(3, f, RoundingScheme::Truncation);
        eval.accuracy(&c(4));
        eval.accuracy(&c(5));
        eval.accuracy(&c(6)); // evicts the LRU entry (frac 4)
        assert_eq!(eval.stats().memo_evictions, 1);
        // Frac 5 and 6 are still cached; frac 4 must be re-evaluated.
        eval.accuracy(&c(5));
        eval.accuracy(&c(6));
        assert_eq!(eval.stats().memo_hits, 2);
        eval.accuracy(&c(4));
        assert_eq!(eval.stats().evaluations, 4);
    }

    #[test]
    fn prefix_cache_respects_byte_budget() {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
        let ds = SynthKind::Mnist.generate(20, 5);
        let accel = SearchAccel {
            prefix_budget_bytes: 64 * 1024,
            ..SearchAccel::default()
        };
        let mut eval = Evaluator::with_accel(&model, &ds, 10, accel);
        for f in 2u8..10 {
            eval.accuracy(&ModelQuant::uniform(3, f, RoundingScheme::Truncation));
        }
        assert!(
            eval.prefix.bytes <= 64 * 1024 || eval.prefix.entries.len() == 1,
            "prefix cache over budget: {} bytes",
            eval.prefix.bytes
        );
        assert!(eval.stats().prefix_evictions > 0);
    }
}
