//! Shared by the pinned-transcript suites (`udf_transcript`,
//! `hqdl_transcript`): an FNV-1a digest and a model wrapper that folds
//! every prompt and completion into one.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
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
    call_sum: AtomicU64,
}

impl Recording {
    pub fn new(inner: SimulatedModel) -> Self {
        Recording { inner, digest: Mutex::new(Fnv::new()), call_sum: AtomicU64::new(0) }
    }

    /// The digest of every call so far, in call order.
    pub fn digest(&self) -> u64 {
        self.digest.lock().unwrap().0
    }

    /// The wrapping sum of one digest per call: which calls were made, in
    /// whatever order concurrent workers made them.
    #[allow(dead_code)] // only hqdl_transcript compares worker counts
    pub fn unordered_digest(&self) -> u64 {
        self.call_sum.load(Ordering::SeqCst)
    }
}

impl LanguageModel for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> LlmResult<Completion> {
        let out = self.inner.complete(prompt);
        let text: Cow<str> = match &out {
            Ok(c) => c.text.as_str().into(),
            Err(e) => e.to_string().into(),
        };
        let mut call = Fnv::new();
        call.write(prompt);
        call.write(&text);
        self.call_sum.fetch_add(call.0, Ordering::SeqCst);
        let mut digest = self.digest.lock().unwrap();
        digest.write(prompt);
        digest.write(&text);
        out
    }

    fn usage_meter(&self) -> &UsageMeter {
        self.inner.usage_meter()
    }
}
