import numpy as np
import pytest

from weakmeans import GrayImage, PgmError, read_pgm, write_pgm


def test_single_pixel_p2():
    img = read_pgm(b"P2 1 1 255 128")
    assert img.width == img.height == 1
    assert img.pixels[0, 0] == pytest.approx(128 / 255)
    assert img.maxval == 255


def test_p2_with_comments():
    data = b"P2\n# a comment\n2 2\n# another\n10\n0 5\n10 3\n"
    img = read_pgm(data)
    assert img.pixels.shape == (2, 2)
    assert img.pixels[1, 1] == pytest.approx(0.3)


def test_p5_roundtrip_byte_identical():
    rng = np.random.default_rng(0)
    levels = rng.integers(0, 256, size=(7, 5))
    img = GrayImage(pixels=levels / 255, maxval=255)
    data = write_pgm(img)
    again = write_pgm(read_pgm(data))
    assert again == data


def test_p5_roundtrip_16bit():
    rng = np.random.default_rng(1)
    levels = rng.integers(0, 60001, size=(4, 6))
    img = GrayImage(pixels=levels / 60000, maxval=60000)
    data = write_pgm(img)
    back = read_pgm(data)
    assert back.maxval == 60000
    assert np.array_equal(np.rint(back.pixels * 60000), levels)
    assert write_pgm(back) == data


def test_p2_p5_cross_parse_agreement():
    rng = np.random.default_rng(2)
    levels = rng.integers(0, 256, size=(3, 4))
    img = GrayImage(pixels=levels / 255, maxval=255)
    body = "\n".join(" ".join(str(v) for v in row) for row in levels)
    from_p2 = read_pgm(b"P2\n4 3\n255\n" + body.encode("ascii") + b"\n")
    from_p5 = read_pgm(write_pgm(img))
    assert np.array_equal(from_p2.pixels, from_p5.pixels)


def test_malformed_inputs():
    with pytest.raises(PgmError):
        read_pgm(b"P6 1 1 255 xxx")  # unsupported magic
    with pytest.raises(PgmError):
        read_pgm(b"P2 2 2 255 1 2 3")  # truncated P2
    with pytest.raises(PgmError):
        read_pgm(b"P5 2 2 255\n\x01\x02")  # truncated P5
    with pytest.raises(PgmError):
        read_pgm(b"P2 1 1")  # truncated header
    with pytest.raises(PgmError):
        read_pgm(b"P2 1 1 0 0")  # bad maxval
    with pytest.raises(PgmError):
        read_pgm(b"P2 1 1 255 999")  # sample above maxval
    with pytest.raises(PgmError):
        read_pgm(b"P2 a 1 255 0")  # non-integer dimension
    with pytest.raises(PgmError):
        read_pgm(b"P2 -1 1 255 0")  # signed dimension
    with pytest.raises(PgmError):
        read_pgm(b"P2 1 1 # a comment running to the end of the file")
    with pytest.raises(PgmError):
        read_pgm(b"P5 1 1 255")  # nothing after maxval


def test_grayimage_validation():
    with pytest.raises(ValueError):
        GrayImage(pixels=np.array([[1.5]]), maxval=255)
    with pytest.raises(ValueError):
        GrayImage(pixels=np.array([0.5]), maxval=255)
    with pytest.raises(ValueError):
        GrayImage(pixels=np.array([[0.5]]), maxval=0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):  # NaN is neither < 0 nor > 1
        GrayImage(pixels=np.array([[0.5, np.nan], [0.2, 0.3]]), maxval=255)
