//! Shared by the pinned-transcript suites (`udf_transcript`,
//! `hqdl_transcript`): an FNV-1a digest and a model wrapper that folds
//! every prompt and completion into one.

use std::sync::Mutex;

use swan::prelude::*;
use swan_llm::{Completion, LlmResult, UsageMeter};

#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `text` and a terminator in, so `"ab","c"` and `"a","bc"`
    /// differ.
    pub fn write(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(&[0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Forwards to the simulator and folds both directions into a digest.
pub struct Recording {
    inner: SimulatedModel,
    digest: Mutex<Fnv>,
}

impl Recording {
    pub fn new(inner: SimulatedModel) -> Self {
        Recording { inner, digest: Mutex::new(Fnv::new()) }
    }

    /// The digest of every call so far, in call order.
    pub fn digest(&self) -> u64 {
        self.digest.lock().unwrap().0
    }
}

impl LanguageModel for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> LlmResult<Completion> {
        let out = self.inner.complete(prompt);
        let mut digest = self.digest.lock().unwrap();
        digest.write(prompt);
        match &out {
            Ok(c) => digest.write(&c.text),
            Err(e) => digest.write(&e.to_string()),
        }
        out
    }

    fn usage_meter(&self) -> &UsageMeter {
        self.inner.usage_meter()
    }
}
