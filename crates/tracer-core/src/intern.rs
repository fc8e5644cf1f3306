//! String interning for the ingest hot path.
//!
//! A TCP_TRACE log repeats the same handful of hostnames and program
//! names on every line; parsing each line into an owned
//! [`RawRecord`](crate::raw::RawRecord) (or classifying it into an
//! [`Activity`](crate::activity::Activity))
//! naively allocates a fresh string per field per record. The
//! [`Interner`] deduplicates those fields into shared `Arc<str>`s so
//! the steady-state ingest path performs **zero string allocations per
//! record** — only refcount bumps — and all equal hostnames/programs
//! share one backing allocation (which also shrinks the resident
//! `ContextId` footprint of long sessions).

use std::sync::Arc;

use crate::fasthash::FxBuildHasher;

/// A deduplicating `&str → Arc<str>` cache.
///
/// # Examples
///
/// ```
/// use tracer_core::intern::Interner;
/// let mut i = Interner::new();
/// let a = i.intern("web1");
/// let b = i.intern("web1");
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(i.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Interner {
    set: std::collections::HashSet<Arc<str>, FxBuildHasher>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Returns the shared `Arc<str>` for `s`, allocating it only on
    /// first sight.
    pub fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(existing) = self.set.get(s) {
            return Arc::clone(existing);
        }
        let arc: Arc<str> = Arc::from(s);
        self.set.insert(Arc::clone(&arc));
        arc
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut i = Interner::new();
        let a = i.intern("httpd");
        let b = i.intern("httpd");
        let c = i.intern("java");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert_eq!(i.len(), 0);
        assert!(i.is_empty());
    }
}
