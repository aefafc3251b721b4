//! One-way nesting: JMA forcing → outer 1.5-km domain → inner 500-m domain.
//!
//! Reproduces the domain chain of Fig. 3b at reduced scale: synthetic
//! 3-hourly large-scale profiles drive the outer domain through its Davies
//! rim; the outer state is interpolated to the inner domain's boundary
//! every cycle; convection is triggered inside the inner domain.
//!
//! ```text
//! cargo run --release --example nested_domains [-- --minutes 10]
//! ```

use bda_bench::cli;
use bda_grid::{GridSpec, VerticalCoord};
use bda_scale::base::Sounding;
use bda_scale::forcing::{LargeScaleForcing, TriggerSchedule};
use bda_scale::model::Boundary;
use bda_scale::nesting::outer_to_inner_boundary;
use bda_scale::{Model, ModelConfig, PhysicsSwitches};

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let minutes: f64 = cli::flag(&argv, "--minutes").unwrap_or(10.0);

    println!("=== one-way nesting (Fig. 3b at reduced scale) ===\n");

    // Shared vertical column (nesting requires matching levels).
    let vertical = VerticalCoord::stretched(10, 16_400.0, 1.08);

    // Outer domain: 27 km at 1.5-km spacing, full rim, JMA-style forcing.
    let mut outer_cfg = ModelConfig::outer_bda2021();
    outer_cfg.grid = GridSpec::new(18, 18, 1500.0, vertical.clone());
    outer_cfg.sound_speed = 150.0;
    outer_cfg.dt = 3.0;
    outer_cfg.davies_width = 3;
    outer_cfg.physics = PhysicsSwitches::default();
    outer_cfg.validate();

    // Inner domain: 12 km at 500-m spacing, nested inside with a margin.
    let mut inner_cfg = ModelConfig::reduced(24, 24, 10);
    inner_cfg.grid = GridSpec::new(24, 24, 500.0, vertical);
    inner_cfg.davies_width = 3;
    inner_cfg.halo = bda_grid::halo::HaloPolicy::Clamp;
    inner_cfg.validate();
    let offset = (7_500.0, 7_500.0); // inner origin inside the outer domain

    let sounding = Sounding::convective();
    let mut outer = Model::<f32>::new(outer_cfg.clone(), &sounding);
    outer.boundary = Boundary::Profiles(LargeScaleForcing::new(
        sounding.clone(),
        outer_cfg.grid.vertical.z_center.clone(),
        7,
    ));

    let mut inner = Model::<f32>::new(inner_cfg.clone(), &sounding);
    inner.triggers = TriggerSchedule::random_multicell(
        inner_cfg.grid.lx(),
        inner_cfg.grid.ly(),
        60.0,
        240.0,
        2,
        11,
    );

    println!(
        "outer: {}x{} at {:.1} km; inner: {}x{} at {:.1} km, offset ({:.1}, {:.1}) km\n",
        outer_cfg.grid.nx,
        outer_cfg.grid.ny,
        outer_cfg.grid.dx / 1000.0,
        inner_cfg.grid.nx,
        inner_cfg.grid.ny,
        inner_cfg.grid.dx / 1000.0,
        offset.0 / 1000.0,
        offset.1 / 1000.0
    );

    let coupling_interval = 30.0; // boundary refresh, like the 30-s cycle
    let n_couplings = (minutes * 60.0 / coupling_interval) as usize;
    for step in 0..n_couplings {
        outer.integrate(coupling_interval).expect("outer blew up");
        let bf = outer_to_inner_boundary(&outer.state, &outer_cfg.grid, &inner_cfg.grid, offset);
        inner.boundary = Boundary::Fields(Box::new(bf));
        inner.integrate(coupling_interval).expect("inner blew up");

        if step % 4 == 3 {
            // Compare inner rim wind with the outer field it relaxes toward.
            let rim_u = inner.state.u.at(0, 12, 1);
            let outer_u = match &inner.boundary {
                Boundary::Fields(bf) => bf.u.at(0, 12, 1),
                _ => unreachable!(),
            };
            println!(
                "t={:>5.0}s  outer u_max {:>5.2}  inner rim u {:>6.2} (target {:>6.2})  inner w_max {:>5.2}",
                inner.state.time,
                outer.state.u.interior_max_abs(),
                rim_u,
                outer_u,
                inner.state.w.interior_max_abs()
            );
        }
    }

    // Final check: the rim tracks the driving field.
    let mut err = 0.0f64;
    let mut n = 0;
    if let Boundary::Fields(bf) = &inner.boundary {
        for j in 0..inner_cfg.grid.ny {
            for k in 0..inner_cfg.grid.nz() {
                err +=
                    (inner.state.u.at(0, j as isize, k) - bf.u.at(0, j as isize, k)).abs() as f64;
                n += 1;
            }
        }
    }
    println!(
        "\nmean |inner rim u - outer target| = {:.3} m/s over {n} rim points",
        err / n as f64
    );
    println!("the inner domain receives its large-scale environment from the outer ensemble,");
    println!("exactly the Fig. 3b data dependency (JMA -> outer 1.5 km -> inner 500 m).");
}
