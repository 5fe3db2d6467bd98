"""Observation windows for the tests: the package's estimators take any
lattice.Box, and the tests build theirs centred on the origin."""

from greyvar.lattice import Box


def centered_box(half_widths) -> Box:
    """The box [-h, h) along each axis, h from `half_widths`."""
    hw = tuple(float(h) for h in half_widths)
    return Box(tuple(-h for h in hw), hw)
