//! # encoding — feature encoders for the RAAL cost model
//!
//! Implements the paper's Sec. IV-C:
//!
//! * [`tokenizer`] — turns plan execution statements into word streams;
//! * [`word2vec`] — skip-gram/negative-sampling embeddings trained on the
//!   plan-statement corpus (the node-semantic embedding);
//! * [`onehot`] — the explicit Table II operator encoding;
//! * [`plan_encoder`] — node-semantic + structure (signed degree) +
//!   statistics encoding of whole plans, resource normalisation (Eq. 1)
//!   and assembled training [`plan_encoder::Sample`]s.

#![warn(missing_docs)]

mod memo;
pub mod onehot;
pub mod plan_encoder;
pub mod tokenizer;
pub mod word2vec;

pub use plan_encoder::{EncodedPlan, EncoderConfig, PlanEncoder, Sample};
pub use word2vec::{train as train_word2vec, W2vConfig, Word2Vec};
