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
//! `ContextId` footprint of long sessions). A host-sectioned log
//! changes its hostname and program a handful of times per file, so
//! the two strings returned last are compared before anything is
//! hashed.

use std::collections::HashMap;
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
    /// Every distinct string, in first-seen order.
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, usize, FxBuildHasher>,
    /// Positions in `strings` of the two strings returned last, most
    /// recent first (both 0 until the first string arrives).
    recent: [usize; 2],
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Returns the shared `Arc<str>` for `s`, allocating it only on
    /// first sight.
    pub fn intern(&mut self, s: &str) -> Arc<str> {
        let i = self.position(s);
        Arc::clone(&self.strings[i])
    }

    /// The first-seen position of `s` among the interned strings,
    /// interning it on first sight.
    pub(crate) fn position(&mut self, s: &str) -> usize {
        let strings = &self.strings;
        let hit = |&i: &usize| strings.get(i).is_some_and(|r| **r == *s);
        if let Some(k) = self.recent.iter().position(hit) {
            self.recent.swap(0, k);
            return self.recent[0];
        }
        let i = match self.index.get(s) {
            Some(&i) => i,
            None => {
                let arc: Arc<str> = Arc::from(s);
                self.index.insert(Arc::clone(&arc), self.strings.len());
                self.strings.push(arc);
                self.strings.len() - 1
            }
        };
        self.recent = [i, self.recent[0]];
        i
    }

    /// Every distinct string, in first-seen order.
    pub(crate) fn strings(&self) -> &[Arc<str>] {
        &self.strings
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
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
    fn alternating_host_and_program_keep_their_identity() {
        let mut i = Interner::new();
        let (host, prog) = (i.intern("web1"), i.intern("httpd"));
        for _ in 0..4 {
            assert!(Arc::ptr_eq(&i.intern("web1"), &host));
            assert!(Arc::ptr_eq(&i.intern("httpd"), &prog));
        }
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn a_miss_between_two_hits_keeps_both_sides() {
        let mut i = Interner::new();
        let a = i.intern("web1");
        let b = i.intern("httpd");
        assert!(Arc::ptr_eq(&i.intern("httpd"), &b));
        // A third string pushes `web1` out of the recent pair; the set
        // still returns the one allocation.
        let c = i.intern("sshd");
        assert!(Arc::ptr_eq(&i.intern("web1"), &a));
        assert!(Arc::ptr_eq(&i.intern("sshd"), &c));
        assert!(Arc::ptr_eq(&i.intern("httpd"), &b));
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn prefixes_are_distinct_strings() {
        let mut i = Interner::new();
        let short = i.intern("web");
        let long = i.intern("web1");
        assert_eq!((&*short, &*long), ("web", "web1"));
        assert!(Arc::ptr_eq(&i.intern("web"), &short));
        assert!(Arc::ptr_eq(&i.intern("web1"), &long));
        assert_eq!(&*i.intern("we"), "we");
        assert_eq!(&*i.intern(""), "");
        assert_eq!(i.len(), 4);
    }

    #[test]
    fn len_counts_distinct_strings_only() {
        let mut i = Interner::new();
        let names = [
            "web1", "httpd", "web1", "sshd", "app1", "java", "web1", "httpd",
        ];
        for _ in 0..3 {
            for n in names {
                i.intern(n);
            }
        }
        assert_eq!(i.len(), 5);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert_eq!(i.len(), 0);
        assert!(i.is_empty());
    }
}
