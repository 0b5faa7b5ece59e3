import numpy as np
import pytest

import spinflow as sf
from spinflow import snapshots

from conftest import blob_field, unit_coupling


def loop_field_csv(field) -> str:
    """Per-node loop writer: the byte-for-byte reference of write_field_csv."""
    g = field.grid
    out = ["x,y,ux,uy,uz\n"]
    for i in range(g.nx):
        x = i * g.hx
        for j in range(g.ny):
            u = [float(c) for c in field.values[:, i, j]]
            out.append(f"{x!r},{j * g.hy!r},{u[0]!r},{u[1]!r},{u[2]!r}\n")
    return "".join(out)


def loop_density_pgm(density, maxval: int = 255) -> str:
    """Per-pixel loop writer: the byte-for-byte reference of write_density_pgm."""
    top = float(density.max())
    if top > 0:
        img = np.rint(np.clip(density, 0.0, None) / top * maxval).astype(int)
    else:
        img = np.zeros(density.shape, dtype=int)
    nx, ny = density.shape
    out = [f"P2\n{nx} {ny}\n{maxval}\n"]
    for j in range(ny):
        out.append(" ".join(str(img[i, j]) for i in range(nx)) + "\n")
    return "".join(out)


class TestBinarySnapshot:
    def test_round_trip_bit_exact(self, tmp_path, grid32):
        u = sf.perturb(blob_field(grid32), 0.1, 17)
        path = tmp_path / "field.bin"
        snapshots.write_snapshot(path, u)
        back = snapshots.read_snapshot(path)
        assert back.grid == u.grid
        assert np.array_equal(back.values, u.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(ValueError):
            snapshots.read_snapshot(path)

    def test_truncated_payload_rejected(self, tmp_path, grid32):
        u = blob_field(grid32)
        path = tmp_path / "field.bin"
        snapshots.write_snapshot(path, u)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            snapshots.read_snapshot(path)


class TestCsvExport:
    def test_header_and_rows(self, tmp_path, grid32):
        u = blob_field(grid32)
        path = tmp_path / "field.csv"
        snapshots.write_field_csv(path, u)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,y,ux,uy,uz"
        assert len(lines) == 1 + grid32.nx * grid32.ny
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert float(first[2]) == u.values[0, 0, 0]

    def test_bytes_equal_loop_writer(self, tmp_path):
        g = sf.make_grid(24, 20, 1.3, 0.7)
        u = sf.perturb(blob_field(g), 0.3, 5)
        path = tmp_path / "field.csv"
        snapshots.write_field_csv(path, u)
        assert path.read_bytes() == loop_field_csv(u).encode("utf-8")


class TestPgm:
    def test_max_scaled(self, tmp_path, grid32):
        density = sf.energy_density(blob_field(grid32), unit_coupling(grid32))
        path = tmp_path / "density.pgm"
        snapshots.write_density_pgm(path, density)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "P2"
        assert lines[1] == f"{grid32.nx} {grid32.ny}"
        assert lines[2] == "255"
        values = [int(v) for row in lines[3:] for v in row.split()]
        assert max(values) == 255 and min(values) >= 0
        assert len(values) == grid32.nx * grid32.ny

    def test_bytes_equal_loop_writer(self, tmp_path):
        g = sf.make_grid(24, 20, 1.3, 0.7)
        density = sf.energy_density(sf.perturb(blob_field(g), 0.3, 5), unit_coupling(g))
        density[3, :] = 0.0
        for name, d in (("blob", density), ("zero", np.zeros(g.shape))):
            path = tmp_path / f"{name}.pgm"
            snapshots.write_density_pgm(path, d)
            assert path.read_bytes() == loop_density_pgm(d).encode("ascii"), name

    @pytest.mark.parametrize("maxval", [1, 15, 1000, 65535])
    def test_bytes_equal_loop_writer_other_maxval(self, tmp_path, maxval):
        g = sf.make_grid(24, 20, 1.3, 0.7)
        density = sf.energy_density(sf.perturb(blob_field(g), 0.3, 5), unit_coupling(g))
        path = tmp_path / "density.pgm"
        snapshots.write_density_pgm(path, density, maxval=maxval)
        assert path.read_bytes() == loop_density_pgm(density, maxval).encode("ascii")

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_overflowed_density_is_black(self, tmp_path, bad):
        density = np.ones((8, 9))
        density[2, 3] = bad
        path = tmp_path / "bad.pgm"
        snapshots.write_density_pgm(path, density)
        assert path.read_text() == "P2\n8 9\n255\n" + "0 0 0 0 0 0 0 0\n" * 9

    def test_zero_field(self, tmp_path, grid32):
        path = tmp_path / "zero.pgm"
        snapshots.write_density_pgm(path, np.zeros(grid32.shape))
        values = [int(v) for row in path.read_text().strip().split("\n")[3:]
                  for v in row.split()]
        assert set(values) == {0}
