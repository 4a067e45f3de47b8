//! A by-name registry of replacement policies.
//!
//! The engine used to hard-code the `PolicyKind -> ReplacementPolicy` match;
//! the registry turns that into data so that downstream code can plug in a
//! custom [`ReplacementPolicy`] without editing the engine: register a
//! factory under a name and select it via
//! [`ScanShareConfig::custom_policy`](scanshare_common::ScanShareConfig).
//!
//! Factories receive the full [`ScanShareConfig`] so that a custom policy
//! can derive its tuning from the engine configuration; the built-in
//! policies keep theirs in code.

use std::collections::HashMap;
use std::sync::Arc;

use scanshare_common::{Error, PolicyKind, Result, ScanShareConfig};

use crate::clock::ClockPolicy;
use crate::lru::LruPolicy;
use crate::pbm::PbmPolicy;
use crate::pbm_lru::PbmLruPolicy;
use crate::policy::ReplacementPolicy;
use crate::sieve::SievePolicy;

/// A factory producing a replacement policy from the engine configuration.
pub type PolicyFactory = Arc<dyn Fn(&ScanShareConfig) -> Box<dyn ReplacementPolicy> + Send + Sync>;

/// Maps policy names to factories.
#[derive(Clone)]
pub struct PolicyRegistry {
    factories: HashMap<String, PolicyFactory>,
}

impl std::fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// The registry name the page-level policy of an engine or simulation
/// resolves to: `config.custom_policy` when set, otherwise the built-in
/// name for `policy`. `PolicyKind::Opt` runs under PBM, exactly like the
/// paper's trace-recording methodology (`CScan` never reaches this).
/// [`build_backend`](crate::backend::build_backend) resolves through this
/// function for the execution engine and the discrete-event simulator alike.
pub fn pooled_policy_name(config: &ScanShareConfig, policy: PolicyKind) -> &str {
    config.custom_policy.as_deref().unwrap_or(match policy {
        PolicyKind::Lru => "lru",
        PolicyKind::Pbm | PolicyKind::Opt | PolicyKind::CScan => "pbm",
    })
}

impl PolicyRegistry {
    /// An empty registry (no names resolve).
    pub fn empty() -> Self {
        Self {
            factories: HashMap::new(),
        }
    }

    /// A registry with the built-in page-level policies registered:
    /// `"lru"`, `"pbm"`, `"pbm-lru"`, `"clock"` and `"sieve"`.
    pub fn with_defaults() -> Self {
        let mut registry = Self::empty();
        registry.register("lru", |_| Box::new(LruPolicy::new()));
        registry.register("clock", |_| Box::new(ClockPolicy::new()));
        registry.register("sieve", |_| Box::new(SievePolicy::new()));
        registry.register("pbm", |_| Box::new(PbmPolicy::new()));
        registry.register("pbm-lru", |_| Box::new(PbmLruPolicy::new()));
        registry
    }

    /// Registers (or replaces) a factory under `name`. Names are matched
    /// case-insensitively.
    pub fn register<F>(&mut self, name: impl Into<String>, factory: F) -> &mut Self
    where
        F: Fn(&ScanShareConfig) -> Box<dyn ReplacementPolicy> + Send + Sync + 'static,
    {
        self.factories
            .insert(name.into().to_ascii_lowercase(), Arc::new(factory));
        self
    }

    /// Whether `name` resolves to a registered factory.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(&name.to_ascii_lowercase())
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.factories.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Builds the policy registered under `name`.
    pub fn build(
        &self,
        name: &str,
        config: &ScanShareConfig,
    ) -> Result<Box<dyn ReplacementPolicy>> {
        match self.factories.get(&name.to_ascii_lowercase()) {
            Some(factory) => Ok(factory(config)),
            None => Err(Error::config(format!(
                "unknown replacement policy {name:?}; registered: {}",
                self.names().join(", ")
            ))),
        }
    }
}

impl Default for PolicyRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_common::{PageId, ScanId, VirtualInstant};
    use scanshare_storage::layout::ScanPagePlan;
    use std::collections::HashSet;

    use crate::policy::ScanInfo;

    #[test]
    fn defaults_cover_the_builtin_policies() {
        let registry = PolicyRegistry::default();
        assert_eq!(
            registry.names(),
            vec!["clock", "lru", "pbm", "pbm-lru", "sieve"]
        );
        let config = ScanShareConfig::default();
        for name in [
            "lru", "pbm", "pbm-lru", "clock", "sieve", "LRU", "Pbm", "PBM-LRU", "Clock", "SIEVE",
        ] {
            assert!(registry.contains(name), "{name}");
            let policy = registry.build(name, &config).unwrap();
            assert_eq!(policy.name(), name.to_ascii_lowercase(), "{name}");
        }
    }

    #[test]
    fn unknown_names_produce_a_descriptive_error() {
        let registry = PolicyRegistry::default();
        let err = registry
            .build("mru", &ScanShareConfig::default())
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("mru"), "{message}");
        assert!(
            message.contains("lru") && message.contains("pbm"),
            "{message}"
        );
        assert!(PolicyRegistry::empty()
            .build("lru", &ScanShareConfig::default())
            .is_err());
    }

    #[derive(Debug)]
    struct Fifo {
        order: Vec<PageId>,
    }

    impl ReplacementPolicy for Fifo {
        fn name(&self) -> &'static str {
            "fifo"
        }
        fn register_scan(&mut self, _: &ScanInfo, _: &ScanPagePlan, _: VirtualInstant) {}
        fn report_scan_position(&mut self, _: ScanId, _: u64, _: VirtualInstant) {}
        fn unregister_scan(&mut self, _: ScanId, _: VirtualInstant) {}
        fn on_access(&mut self, _: PageId, _: Option<ScanId>, _: VirtualInstant) {}
        fn on_admit(&mut self, page: PageId, _: VirtualInstant) {
            self.order.push(page);
        }
        fn on_evict(&mut self, page: PageId) {
            self.order.retain(|&p| p != page);
        }
        fn choose_victims(
            &mut self,
            count: usize,
            exclude: &HashSet<PageId>,
            _: VirtualInstant,
        ) -> Vec<PageId> {
            self.order
                .iter()
                .copied()
                .filter(|p| !exclude.contains(p))
                .take(count)
                .collect()
        }
    }

    #[test]
    fn custom_policies_can_be_registered_and_built() {
        let mut registry = PolicyRegistry::default();
        registry.register("fifo", |_| Box::new(Fifo { order: Vec::new() }));
        assert!(registry.contains("FIFO"));
        let policy = registry.build("fifo", &ScanShareConfig::default()).unwrap();
        assert_eq!(policy.name(), "fifo");
        // Re-registering replaces the factory.
        registry.register("fifo", |_| Box::new(LruPolicy::new()));
        let policy = registry.build("fifo", &ScanShareConfig::default()).unwrap();
        assert_eq!(policy.name(), "lru");
    }
}
