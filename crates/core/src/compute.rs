//! Diagnostic computations ("compute" styles, §2.2): temperature,
//! kinetic energy, and pressure from the pair virial.

use crate::atom::AtomData;
use crate::domain::Domain;
use crate::units::Units;

/// Total kinetic energy `Σ ½ m v²` of owned atoms.
pub fn kinetic_energy(atoms: &AtomData, units: &Units) -> f64 {
    let vh = atoms.v.h_view();
    let typ = atoms.typ.h_view();
    let mut ke2 = 0.0;
    for i in 0..atoms.nlocal {
        let m = atoms.mass[typ.at([i]) as usize];
        let v = [vh.at([i, 0]), vh.at([i, 1]), vh.at([i, 2])];
        ke2 += m * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
    }
    0.5 * units.mvv2e * ke2
}

/// Instantaneous temperature with 3N−3 degrees of freedom (matching the
/// LAMMPS `compute temp` default of removed center-of-mass motion).
pub fn temperature(atoms: &AtomData, units: &Units) -> f64 {
    let n = atoms.nlocal;
    if n < 2 {
        return 0.0;
    }
    let dof = (3 * n - 3) as f64;
    2.0 * kinetic_energy(atoms, units) / (dof * units.boltz)
}

/// Pressure from the virial theorem:
/// `P = (N k_B T + W/3) / V` with `W = Σ r·f` the pair virial.
pub fn pressure(atoms: &AtomData, units: &Units, domain: &Domain, virial: f64) -> f64 {
    let n = atoms.nlocal as f64;
    let t = temperature(atoms, units);
    (n * units.boltz * t + virial / 3.0) / domain.volume()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinetic_energy_simple() {
        let mut a = AtomData::from_positions(&[[0.0; 3], [1.0; 3]]);
        let vh = a.v.h_view_mut();
        vh.set([0, 0], 2.0);
        vh.set([1, 1], -2.0);
        let u = Units::lj();
        // ½·1·4 + ½·1·4 = 4
        assert_eq!(kinetic_energy(&a, &u), 4.0);
    }

    #[test]
    fn temperature_of_two_atoms() {
        let mut a = AtomData::from_positions(&[[0.0; 3], [1.0; 3]]);
        a.v.h_view_mut().set([0, 0], 1.0);
        a.v.h_view_mut().set([1, 0], -1.0);
        let u = Units::lj();
        // KE = 1.0, dof = 3, T = 2*1/3.
        assert!((temperature(&a, &u) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_gas_pressure() {
        let mut a = AtomData::from_positions(&[[0.0; 3], [1.0; 3], [2.0; 3]]);
        for i in 0..3 {
            a.v.h_view_mut().set([i, 0], 1.0);
        }
        let u = Units::lj();
        let d = Domain::cubic(10.0);
        let p = pressure(&a, &u, &d, 0.0);
        let expect = 3.0 * u.boltz * temperature(&a, &u) / 1000.0;
        assert!((p - expect).abs() < 1e-15);
    }
}
