import dataclasses

import pytest

from mayacal.arith import lcm_factorization, lcm_many
from mayacal.cycles import CALENDAR_ROUND, ERA, KAWIL_CYCLE
from mayacal.supernumber import (
    CANONICAL_PERIODS,
    LONG_ROUND,
    SUPER_NUMBER,
    XULTUN,
    XULTUN_UNIT,
    creation_residues,
    cultural_dates,
    verify_aeon_division,
    verify_aeon_identity,
    verify_cultural_dates,
    verify_grand_cycle_division,
    verify_supernumber,
    verify_xultun,
)


class TestComputeSupernumber:
    def test_canonical_value(self):
        factors = lcm_factorization(CANONICAL_PERIODS)
        assert factors.value == 768039133778280
        assert factors.as_dict() == {
            2: 3, 3: 3, 5: 1, 7: 1, 13: 1, 19: 1, 29: 1, 37: 1, 59: 1, 73: 1, 89: 1,
        }

    def test_all_ones(self):
        factors = lcm_factorization((1,) * 9)
        assert factors.value == 1
        assert factors.as_dict() == {}

    def test_venus_mars_pair(self):
        assert lcm_many([584, 780]) == 2 * 56940 == 113880

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            lcm_factorization((0, *CANONICAL_PERIODS[1:]))


class TestDeriveConstants:
    def test_named_cycles(self, constants):
        assert XULTUN[0] == 341640
        assert constants.tun_haab_kawil == 2391480
        assert constants.grand_cycle == 956592000
        assert constants.aeon == 136656000
        assert ERA == 1872000
        assert LONG_ROUND == 1366560
        assert CALENDAR_ROUND == 18980
        assert KAWIL_CYCLE == 3276


class TestSupernumberReport:
    def test_all_pass(self, constants):
        report = verify_supernumber(constants)
        assert report.ok, report.failures

    def test_divisibility_by_every_period(self, constants):
        for p in CANONICAL_PERIODS:
            assert constants.n % p == 0

    def test_cofactor_list(self, constants):
        y = constants.tun_haab_kawil
        cofactors = [lcm_many([p, y]) // y for p in CANONICAL_PERIODS]
        assert cofactors == [29, 1, 1, 1, 19, 3, 59, 89, 37]

    def test_wheel_product_identity(self, constants):
        assert constants.n == constants.tun_haab_kawil * 3 * 19 * 29 * 37 * 59 * 89


class TestXultun:
    def test_all_pass(self, constants):
        report = verify_xultun(constants)
        assert report.ok, report.failures

    def test_unit_ratios(self):
        assert [x // XULTUN_UNIT for x in XULTUN] == [6, 21, 31, 43]
        assert all(x % XULTUN_UNIT == 0 for x in XULTUN)


class TestEuclidIdentities:
    def test_all_pass(self, constants):
        for report in (verify_grand_cycle_division(constants), verify_aeon_division(constants)):
            assert report.ok, report.failures

    def test_grand_cycle_remainder(self, constants):
        n37 = constants.n // 37
        assert divmod(n37, constants.grand_cycle) == (21699, 724618440)

    def test_aeon_remainder(self, constants):
        n37 = constants.n // 37
        assert divmod(n37, constants.aeon) == (151898, 41338440)

    def test_remainder_decompositions(self):
        assert 126 * (341640 + 1195740 + 1765140 + 2448420) == 724618440
        assert 101 * 126 * 56940 == 724618440
        assert 121 * 341640 == 41338440
        assert 6 * 121 * 56940 == 41338440


class TestAeonIdentity:
    def test_all_pass(self, constants):
        report = verify_aeon_identity(constants)
        assert report.ok, report.failures

    def test_xultun_sum_lcm(self):
        # 5A - 5X0 as an LCM over Xultun sums, checked by direct multiplication.
        assert lcm_many([5409300, 7174440]) == 681571800
        assert 5 * 136656000 - 5 * 341640 == 681571800

    def test_era_gap(self):
        assert 1872000 - 1708200 == 163800
        assert 163800 == 10 * lcm_many([260, 3276])

    def test_five_aeon_as_eras(self):
        assert 5 * 136656000 == 683280000 == 365 * 1872000

    def test_aeon_closed_forms(self, constants):
        assert constants.aeon == lcm_many([260, 365, 144000])
        assert constants.grand_cycle == lcm_many([365, 3276, 144000])
        assert constants.aeon == 7200 * 18980 == 3600 * 37960 == 2400 * 56940


class TestCreationResidues:
    @staticmethod
    def computed(constants):
        return {c.name: c.computed for c in creation_residues(constants).checks}

    def test_all_pass(self, constants):
        report = creation_residues(constants)
        assert report.ok, report.failures

    def test_quotient_and_residues(self, constants):
        computed = self.computed(constants)
        assert computed["N / (13*37*73)"] == 21873355560
        residues = [computed[f"mod {m}"] for m in (260, 13, 20, 73)]
        assert residues == [160, 4, 0, 49]
        assert computed["mod(N/37/32760, 4)"] == 3

    def test_anchoring(self, constants):
        computed = self.computed(constants)
        assert computed["anchor Tzolk'in"] == "4 Ahau"
        assert computed["anchor Haab'"] == "8 Zip"
        assert computed["shifted Haab'"] == "8 Cumku"
        assert computed["13-Tun shift to 8 Cumku"] == 4680

    def test_shift_scan_from_zip_anchor(self):
        # Oracle: walk 13-Tun completions from the {160; 49} anchor until the
        # positions read {160; 349}.
        hits = [
            d
            for d in range(4680, 18981, 4680)
            if (d + 160) % 260 == 160 and (d + 49) % 365 == 349
        ]
        assert hits[0] == 4680

    def test_non_divisible_is_hard_failure(self, constants):
        broken = dataclasses.replace(constants, n=constants.n + 1)
        with pytest.raises(ArithmeticError):
            creation_residues(broken)


class TestCulturalDates:
    def test_all_pass(self, constants):
        report = verify_cultural_dates(constants)
        assert report.ok, report.failures

    def test_rows(self, constants):
        rows = {row.label: row for row in cultural_dates(constants)}
        assert rows["I0"].position == (160, 349, 3, 0)
        assert rows["5X0"].position == (160, 349, 588, 1)
        assert rows["5X0"].day == 1708200
        assert rows["5X0"].lcc_display == "11.17.5.0.0"
        assert rows["E"].position == (160, 264, 588, 1)
        assert rows["E"].lcc_display == "13(0).0.0.0.0"
        assert rows["5A"].position == (160, 349, 588, 1)
        assert rows["5A"].lcc_display == "365×13(0).0.0.0.0"
        assert rows["GC"].position == (160, 349, 3, 0)
        assert rows["GC"].day == 956592000
        assert rows["GC"].lcc_display == "511×13(0).0.0.0.0"
