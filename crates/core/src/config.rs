//! User-facing TECO configuration.
//!
//! §V-A: two model-dependent hyperparameters govern DBA — `act_aft_steps`
//! (default 500) and `dirty_bytes` (2 for DL training, because parameter
//! value changes concentrate in the least-significant two bytes). The
//! protocol mode is selectable per §IV-A2: update for clear
//! producer-consumer workloads, invalidation otherwise.

use crate::placement::PlacementPolicy;
use serde::{Deserialize, Reader, Serialize, Writer};
use teco_cxl::{CxlConfig, ProtocolMode, RasConfig};

/// The TECO runtime configuration (the "AI model configuration file" knobs).
#[derive(Debug, Clone)]
pub struct TecoConfig {
    /// Steps before DBA activates (`act_aft_steps`, §V-A; default 500).
    pub act_aft_steps: u64,
    /// Dirty bytes per 4-byte word (`dirty_bytes`, §V-A; default 2,
    /// range 0–4; 4 disables truncation).
    pub dirty_bytes: u8,
    /// Coherence protocol for giant-cache lines.
    pub protocol: ProtocolMode,
    /// Interconnect parameters.
    pub cxl: CxlConfig,
    /// Giant-cache capacity in bytes (the resizable-BAR setting, fixed
    /// before training starts — §IV-A1).
    pub giant_cache_bytes: u64,
    /// Enable the paranoid invariant auditor: the session keeps a shadow
    /// copy of every giant-cache line it writes and cross-checks the whole
    /// stack (coherence, cache accounting, link volumes, resident data) at
    /// every fence. Off by default — the legacy path then pays nothing: no
    /// shadow allocations, no extra RNG draws, no audit walks.
    pub audit: bool,
    /// Pool-media RAS: persistent uncorrectable faults, patrol scrub,
    /// and page retirement. Off by default — then no `MediaRas` is ever
    /// constructed and the session is bit-identical to a pre-RAS build.
    pub ras: RasConfig,
    /// Tensor placement policy. `SingleTier` (the default) keeps every
    /// tensor in the giant cache and constructs no placement engine —
    /// the session is then bit-identical to a pre-placement build.
    pub placement: PlacementPolicy,
}

// Hand-written (de)serialization: the vendored derive has no field
// attributes, and `ras`/`placement` must be omitted while at their
// defaults so pre-RAS / pre-placement config bytes (digested inside
// committed session snapshots) are unchanged.
impl Serialize for TecoConfig {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        w.field("act_aft_steps", &self.act_aft_steps);
        w.field("dirty_bytes", &self.dirty_bytes);
        w.field("protocol", &self.protocol);
        w.field("cxl", &self.cxl);
        w.field("giant_cache_bytes", &self.giant_cache_bytes);
        w.field("audit", &self.audit);
        if !self.ras.is_off() {
            w.field("ras", &self.ras);
        }
        if !self.placement.is_single_tier() {
            w.field("placement", &self.placement);
        }
        w.end_object();
    }
}

impl Deserialize for TecoConfig {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let (mut act_aft_steps, mut dirty_bytes, mut protocol, mut cxl) = (None, None, None, None);
        let (mut giant_cache_bytes, mut audit, mut ras, mut placement) = (None, None, None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "act_aft_steps" => r.field(&mut act_aft_steps)?,
                "dirty_bytes" => r.field(&mut dirty_bytes)?,
                "protocol" => r.field(&mut protocol)?,
                "cxl" => r.field(&mut cxl)?,
                "giant_cache_bytes" => r.field(&mut giant_cache_bytes)?,
                "audit" => r.field(&mut audit)?,
                "ras" => r.field(&mut ras)?,
                "placement" => r.field(&mut placement)?,
                _ => r.skip_value()?,
            }
        }
        const TY: &str = "TecoConfig";
        Ok(TecoConfig {
            act_aft_steps: Reader::required(act_aft_steps, "act_aft_steps", TY)?,
            dirty_bytes: Reader::required(dirty_bytes, "dirty_bytes", TY)?,
            protocol: Reader::required(protocol, "protocol", TY)?,
            cxl: Reader::required(cxl, "cxl", TY)?,
            giant_cache_bytes: Reader::required(giant_cache_bytes, "giant_cache_bytes", TY)?,
            audit: Reader::required(audit, "audit", TY)?,
            ras: ras.unwrap_or_else(RasConfig::off),
            placement: placement.unwrap_or(PlacementPolicy::SingleTier),
        })
    }
}

impl Default for TecoConfig {
    fn default() -> Self {
        TecoConfig {
            act_aft_steps: 500,
            dirty_bytes: 2,
            protocol: ProtocolMode::Update,
            cxl: CxlConfig::paper(),
            giant_cache_bytes: 1 << 30,
            audit: false,
            ras: RasConfig::off(),
            placement: PlacementPolicy::SingleTier,
        }
    }
}

impl TecoConfig {
    /// Validate the configuration; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if self.dirty_bytes > 4 {
            return Err(format!("dirty_bytes must be 0..=4, got {}", self.dirty_bytes));
        }
        if self.giant_cache_bytes == 0 {
            return Err("giant cache capacity must be nonzero".into());
        }
        self.ras.validate()?;
        self.placement.validate()?;
        Ok(())
    }

    /// Builder-style: set the DBA activation step.
    pub fn with_act_aft_steps(mut self, steps: u64) -> Self {
        self.act_aft_steps = steps;
        self
    }
    /// Builder-style: set the dirty-byte length.
    pub fn with_dirty_bytes(mut self, n: u8) -> Self {
        assert!(n <= 4);
        self.dirty_bytes = n;
        self
    }
    /// Builder-style: set the giant-cache capacity.
    pub fn with_giant_cache_bytes(mut self, bytes: u64) -> Self {
        self.giant_cache_bytes = bytes;
        self
    }
    /// Builder-style: select the coherence protocol.
    pub fn with_protocol(mut self, p: ProtocolMode) -> Self {
        self.protocol = p;
        self
    }
    /// Builder-style: configure the link fault model (off by default).
    pub fn with_fault(mut self, fault: teco_cxl::FaultConfig) -> Self {
        self.cxl = self.cxl.with_fault(fault);
        self
    }
    /// Builder-style: enable the paranoid invariant auditor.
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }
    /// Builder-style: configure pool-media RAS (off by default).
    pub fn with_ras(mut self, ras: RasConfig) -> Self {
        self.ras = ras;
        self
    }
    /// Builder-style: select the tensor placement policy (single-tier by
    /// default).
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = TecoConfig::default();
        assert_eq!(c.act_aft_steps, 500);
        assert_eq!(c.dirty_bytes, 2);
        assert_eq!(c.protocol, ProtocolMode::Update);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = TecoConfig::default()
            .with_act_aft_steps(100)
            .with_dirty_bytes(1)
            .with_giant_cache_bytes(817 << 20)
            .with_protocol(ProtocolMode::Invalidation);
        assert_eq!(c.act_aft_steps, 100);
        assert_eq!(c.dirty_bytes, 1);
        assert_eq!(c.giant_cache_bytes, 817 << 20);
        assert_eq!(c.protocol, ProtocolMode::Invalidation);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let c = TecoConfig { dirty_bytes: 5, ..TecoConfig::default() };
        assert!(c.validate().is_err());
        let c = TecoConfig { giant_cache_bytes: 0, ..TecoConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let c = TecoConfig::default().with_act_aft_steps(321);
        let json = serde_json::to_string(&c).unwrap();
        let back: TecoConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.act_aft_steps, 321);
        assert_eq!(back.dirty_bytes, c.dirty_bytes);
    }

    #[test]
    fn ras_field_omitted_while_off() {
        let off = TecoConfig::default();
        let json = serde_json::to_string(&off).unwrap();
        assert!(!json.contains("ras"), "RAS-off config must serialize pre-RAS bytes");
        let back: TecoConfig = serde_json::from_str(&json).unwrap();
        assert!(back.ras.is_off());

        let on = TecoConfig::default().with_ras(RasConfig {
            media_faults_per_tick: 0.25,
            scrub_lines_per_tick: 8,
            spare_lines: 4,
            seed: 7,
        });
        let json = serde_json::to_string(&on).unwrap();
        assert!(json.contains("ras"));
        let back: TecoConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.ras, on.ras);
    }

    #[test]
    fn placement_field_omitted_while_single_tier() {
        let single = TecoConfig::default();
        let json = serde_json::to_string(&single).unwrap();
        assert!(
            !json.contains("placement"),
            "single-tier config must serialize pre-placement bytes"
        );
        let back: TecoConfig = serde_json::from_str(&json).unwrap();
        assert!(back.placement.is_single_tier());

        let tiered = TecoConfig::default()
            .with_placement(crate::placement::PlacementPolicy::Tiered(Default::default()));
        let json = serde_json::to_string(&tiered).unwrap();
        assert!(json.contains("placement"));
        let back: TecoConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.placement, tiered.placement);
        assert!(tiered.validate().is_ok());
    }
}
