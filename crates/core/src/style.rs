//! The style registry: input-script command names → C++-class-like
//! factories (§2.1), with accelerator-package *suffix* resolution
//! (§3.1).
//!
//! Non-accelerated styles are registered under their plain name
//! (`lj/cut`) and execute serially on the host, like base LAMMPS.
//! KOKKOS-package styles register the same name with the `/kk` suffix
//! and are templated on the execution space: the user can pick
//! `lj/cut/kk/host` or `lj/cut/kk/device` explicitly, or set a global
//! suffix so every style that has an accelerated variant uses it.

use crate::pair::eam::{EamParams, PairEam};
use crate::pair::lj::LjCut;
use crate::pair::morse::Morse;
use crate::pair::sw::{PairSw, SwParams};
use crate::pair::{PairKokkos, PairStyle};
use lkk_kokkos::Space;
use std::collections::BTreeMap;

/// Everything a pair-style factory needs: the `pair_style` arguments
/// and the accumulated `pair_coeff` lines.
#[derive(Debug, Clone, Default)]
pub struct PairSpec {
    /// Arguments after the style name in `pair_style`.
    pub style_args: Vec<String>,
    /// One entry per `pair_coeff` command (tokenized).
    pub coeffs: Vec<Vec<String>>,
    /// Number of atom types in the system.
    pub ntypes: usize,
}

impl PairSpec {
    pub fn arg_f64(&self, i: usize) -> Result<f64, String> {
        self.style_args
            .get(i)
            .ok_or_else(|| format!("missing pair_style argument {i}"))?
            .parse()
            .map_err(|e| format!("bad pair_style argument {i}: {e}"))
    }
}

type PairFactory =
    Box<dyn Fn(&PairSpec, &Space) -> Result<Box<dyn PairStyle>, String> + Send + Sync>;

/// Name → factory maps for each style category.
pub struct StyleRegistry {
    pairs: BTreeMap<String, PairFactory>,
}

impl StyleRegistry {
    /// Registry with the core styles (`lj/cut`, `morse`, `eam`, `sw`) in
    /// both plain and `/kk` forms. Potential crates (`lkk-snap`,
    /// `lkk-reaxff`) extend this via [`StyleRegistry::register_pair`].
    pub fn core() -> Self {
        let mut reg = StyleRegistry {
            pairs: BTreeMap::new(),
        };
        reg.register_pair("lj/cut", make_lj);
        reg.register_pair("morse", make_morse);
        reg.register_pair("eam", make_eam);
        reg.register_pair("sw", make_sw);
        reg
    }

    /// Register a pair style under `name` and `name/kk`: LAMMPS uses
    /// "the same macro" for both, with the suffix convention (§3.1).
    pub fn register_pair<F>(&mut self, name: &str, factory: F)
    where
        F: Fn(&PairSpec, &Space) -> Result<Box<dyn PairStyle>, String>
            + Send
            + Sync
            + Clone
            + 'static,
    {
        self.pairs
            .insert(name.to_string(), Box::new(factory.clone()));
        self.pairs.insert(format!("{name}/kk"), Box::new(factory));
    }

    /// Resolve a style name under an optional global suffix and create
    /// it. Suffix resolution order matches LAMMPS: `name/suffix` if
    /// registered, else plain `name`. `/kk/host` and `/kk/device`
    /// override the execution space; plain `/kk` keeps `space`.
    pub fn create_pair(
        &self,
        name: &str,
        spec: &PairSpec,
        space: &Space,
        global_suffix: Option<&str>,
    ) -> Result<Box<dyn PairStyle>, String> {
        // Explicit per-style space override.
        let (base, forced_space) = if let Some(b) = name.strip_suffix("/kk/host") {
            (format!("{b}/kk"), Some(Space::Threads))
        } else if let Some(b) = name.strip_suffix("/kk/device") {
            (format!("{b}/kk"), None)
        } else {
            (name.to_string(), None)
        };
        let mut resolved = base.clone();
        if !resolved.ends_with("/kk") {
            if let Some(sfx) = global_suffix {
                let candidate = format!("{resolved}/{sfx}");
                if self.pairs.contains_key(&candidate) {
                    resolved = candidate;
                }
            }
        }
        let factory = self
            .pairs
            .get(&resolved)
            .ok_or_else(|| format!("unknown pair style '{resolved}'"))?;
        // Plain (non-/kk) styles run like base LAMMPS: serial host.
        let space = if resolved.ends_with("/kk") {
            forced_space.unwrap_or_else(|| space.clone())
        } else {
            Space::Serial
        };
        let mut style = factory(spec, &space)?;
        style.set_name(&resolved);
        Ok(style)
    }

    /// All registered pair style names, sorted.
    pub fn pair_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.pairs.keys().cloned().collect();
        v.sort();
        v
    }
}

fn make_lj(spec: &PairSpec, space: &Space) -> Result<Box<dyn PairStyle>, String> {
    let default_cut = spec.arg_f64(0)?;
    let ntypes = spec.ntypes.max(1);
    let mut lj = LjCut::new(ntypes);
    if spec.coeffs.is_empty() {
        return Err("pair lj/cut: no pair_coeff given".into());
    }
    for c in &spec.coeffs {
        let ti: usize = c[0].parse::<usize>().map_err(|e| e.to_string())? - 1;
        let tj: usize = c[1].parse::<usize>().map_err(|e| e.to_string())? - 1;
        let eps: f64 = c[2].parse().map_err(|_| "bad epsilon")?;
        let sig: f64 = c[3].parse().map_err(|_| "bad sigma")?;
        let cut = if c.len() > 4 {
            c[4].parse().map_err(|_| "bad cutoff")?
        } else {
            default_cut
        };
        if ti >= ntypes || tj >= ntypes {
            return Err(format!(
                "pair_coeff type out of range: {} {}",
                ti + 1,
                tj + 1
            ));
        }
        lj.set_coeff(ti, tj, eps, sig, cut);
    }
    Ok(Box::new(PairKokkos::new(lj, space)))
}

fn make_morse(spec: &PairSpec, space: &Space) -> Result<Box<dyn PairStyle>, String> {
    let cut = spec.arg_f64(0)?;
    let c = spec
        .coeffs
        .first()
        .ok_or("pair morse: no pair_coeff given")?;
    let d0: f64 = c[2].parse().map_err(|_| "bad D0")?;
    let alpha: f64 = c[3].parse().map_err(|_| "bad alpha")?;
    let r0: f64 = c[4].parse().map_err(|_| "bad r0")?;
    Ok(Box::new(PairKokkos::new(
        Morse::new(d0, alpha, r0, cut),
        space,
    )))
}

fn make_eam(_spec: &PairSpec, _space: &Space) -> Result<Box<dyn PairStyle>, String> {
    Ok(Box::new(PairEam::new(EamParams::default())))
}

fn make_sw(_spec: &PairSpec, _space: &Space) -> Result<Box<dyn PairStyle>, String> {
    Ok(Box::new(PairSw::new(SwParams::default())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lj_spec() -> PairSpec {
        PairSpec {
            style_args: vec!["2.5".into()],
            coeffs: vec![vec!["1".into(), "1".into(), "1.0".into(), "1.0".into()]],
            ntypes: 1,
        }
    }

    #[test]
    fn plain_style_runs_serial_host() {
        let reg = StyleRegistry::core();
        let p = reg
            .create_pair("lj/cut", &lj_spec(), &Space::Threads, None)
            .unwrap();
        assert_eq!(p.name(), "lj/cut");
        // Plain style defaults to half list (CPU heuristic).
        assert!(p.wants_half_list());
    }

    #[test]
    fn global_suffix_selects_kk_variant() {
        let reg = StyleRegistry::core();
        let dev = Space::device(lkk_gpusim::GpuArch::h100());
        let p = reg
            .create_pair("lj/cut", &lj_spec(), &dev, Some("kk"))
            .unwrap();
        assert_eq!(p.name(), "lj/cut/kk");
        // Device default: full list.
        assert!(!p.wants_half_list());
    }

    #[test]
    fn explicit_host_suffix_overrides_space() {
        let reg = StyleRegistry::core();
        let dev = Space::device(lkk_gpusim::GpuArch::h100());
        let p = reg
            .create_pair("lj/cut/kk/host", &lj_spec(), &dev, None)
            .unwrap();
        // Host execution → half list heuristic.
        assert!(p.wants_half_list());
    }

    #[test]
    fn unknown_style_is_an_error() {
        let reg = StyleRegistry::core();
        assert!(reg
            .create_pair("eam/alloy", &lj_spec(), &Space::Serial, None)
            .is_err());
    }

    #[test]
    fn suffix_fallback_when_no_kk_variant() {
        let mut reg = StyleRegistry::core();
        // Register a style with no /kk variant by inserting directly.
        reg.pairs.insert(
            "plain/only".into(),
            Box::new(|spec: &PairSpec, space: &Space| make_lj(spec, space)),
        );
        let p = reg
            .create_pair("plain/only", &lj_spec(), &Space::Threads, Some("kk"))
            .unwrap();
        // Fell back to the plain variant without error (and was
        // renamed to its resolved registry key).
        assert_eq!(p.name(), "plain/only");
    }

    #[test]
    fn registry_lists_both_forms() {
        let reg = StyleRegistry::core();
        let names = reg.pair_names();
        assert!(names.contains(&"lj/cut".to_string()));
        assert!(names.contains(&"lj/cut/kk".to_string()));
        assert!(names.contains(&"morse/kk".to_string()));
        assert!(names.contains(&"eam/kk".to_string()));
        assert!(names.contains(&"sw/kk".to_string()));
    }
}
