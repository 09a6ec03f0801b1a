"""Exact tiling counts: dominoes on 2D grid regions, bricks in 3D prisms.

Each name below is imported from its module on first use, so importing one
module, such as ``tilecount.sequences``, loads only what that module needs.
"""

_EXPORTS = {
    "budget": "BudgetError",
    "count2d": "Tiling count_rectangle count_tilings count_tilings_bruteforce enumerate_tilings"
    " parse_tiling_ascii render_tiling_ascii",
    "identities": "CheckResult Report verify_all verify_coupled_recurrences verify_crux"
    " verify_table1 verify_table2 verify_tauraso verify_thm21 verify_thm32",
    "regions2d": "Region2D a_grid b_grid c_grid from_ascii l2_region l3_region rect to_ascii",
    "sequences": "ClosedForm ClosedFormCancellationError Family LinearRecurrence catalog"
    " closed_eval fibonacci l2 l3 rec_eval_matpow",
    "solid3d": "Prism3D count_bricks count_bricks_bruteforce layer_counts m_tower tower",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
