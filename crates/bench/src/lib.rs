//! Experiment harness behind the unified `swim` CLI.
//!
//! Every table and figure of the paper's evaluation section is a preset
//! of the `swim` CLI (`swim preset <name>`):
//!
//! | Preset | Paper artifact |
//! |--------|----------------|
//! | `fig1` | Fig. 1a/1b — accuracy drop vs magnitude / second derivative |
//! | `table1` | Table 1 — LeNet, σ ∈ {0.1, 0.15, 0.2}, 4 methods × NWC grid |
//! | `fig2a` | Fig. 2a — ConvNet / CIFAR-10-like |
//! | `fig2b` | Fig. 2b — ResNet-18 / CIFAR-10-like |
//! | `fig2c` | Fig. 2c — ResNet-18 / Tiny-ImageNet-like |
//! | `calibration` | §4.1 — write-verify cycle/residual statistics |
//! | `ablation` | granularity p sweep + tie-break + calibration-set ablations |
//!
//! `swim run <spec.toml>` executes any declarative `swim-exp` spec,
//! `swim preset table1 --set runs=3000` runs a paper artifact with
//! overrides, and `--out results.json` emits the machine-readable results document
//! (typed schema: `swim_report::schema::ResultsDoc`). The analysis side
//! lives in `swim-report` and is surfaced as `swim diff` (point-by-point
//! comparison, nonzero exit on drift), `swim report` (Markdown report),
//! and `swim summarize` (cross-run table) — see `docs/workflow.md`.
//!
//! This library provides the pieces everything shares: a tiny flag
//! parser ([`cli`]), dataset/model preparation with training ([`prep`]),
//! the accuracy-target → NWC speed-up arithmetic ([`speedup`]), the
//! selector-driven method-sweep driver ([`driver`]), the spec-driven
//! experiment engine ([`experiment`]), and the `swim serve` engine with
//! its prepared-model cache ([`service`]).

#![warn(missing_docs)]

pub mod cli;
pub mod driver;
pub mod experiment;
pub mod merge;
pub mod prep;
pub mod service;
pub mod speedup;
