"""Central defaults for grids, tolerances, and sampling.

Every default the library reads lives here so that ``--show-config`` can print
the complete picture and reports can embed the values they actually used.
"""

DEFAULTS = {
    # random sampling
    "seed": 20240,
    "sample_box": 2.0,          # half-width of the sampling box for point draws
    "jacobi_points": 100,
    "jacobi_tol": 1e-9,
    # ODE integration of cotangent paths
    "ode_method": "rk45",       # "rk45" (adaptive) or "rk4" (fixed step)
    "ode_rtol": 1e-10,
    "ode_atol": 1e-10,
    "t_intervals": 1000,        # time grid: t_intervals + 1 nodes on [0, 1]
    # path families and homotopy
    "eps_intervals": 40,        # 41 slices across the deformation parameter
    "homotopy_tol": 1e-5,
    "flow_defect_tol": 1e-5,
    # sphere quadrature and monodromy
    "area_grid": [200, 100],    # (theta intervals, phi intervals)
    "area_check_rel": 1e-4,     # grid-doubling convergence requirement
    # rank decisions
    "rank_tol": 1e-8,
    "gap_ratio_min": 10.0,
    # discreteness of period groups
    "denominator_bound": 1e6,
    "ratio_tol": 1e-9,
    "rn_threshold": 1e-3,
}


def get_default(name):
    return DEFAULTS[name]
