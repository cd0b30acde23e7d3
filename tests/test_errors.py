import math

import pytest

from pinchlab import DomainError, harmonic_sum, surface_data, thin_part_upper_bound


@pytest.mark.parametrize("call", [
    lambda: surface_data(math.nan),
    lambda: surface_data(math.inf),
    lambda: harmonic_sum(math.inf),
    lambda: thin_part_upper_bound(math.nan, 1.0),
])
def test_non_finite_integers_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
