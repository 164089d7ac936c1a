"""Byte pins of eval-mode CLI output that no benchmark golden covers.

Each case runs one qfock command in process and compares the SHA-256 of its
exit code and stdout with a digest recorded from an earlier, independently
written version of the code.  The cases cover every compute family at a
bound point (JSON and text), the q-dimension commands, the oracle at a
point with and without charge grading, and the full verify run in eval
mode, so a change in the coefficient domain of a variable-free series
cannot move an output byte unnoticed.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from qfock.cli import main


def _compute(family, l, lam, n, seed, fmt, *extra):
    return ("compute", "--family", family, "--l", str(l), "--lambda", lam,
            "--n", str(n), "--order", "3", "--mode", "eval", "--seed",
            str(seed), "--format", fmt, *extra)


def _cases():
    for seed in (0, 3):
        for fmt in ("json", "text"):
            for l, lam in ((0, ""), (1, "1")):
                yield _compute("gl", l, lam, 2, seed, fmt)
                yield _compute("d-sum", l, lam, 2, seed, fmt)
                yield _compute("d-twisted", l, lam, 2, seed, fmt)
                yield _compute("d-irreducible", l, lam, 2, seed, fmt)
                yield _compute("d-irreducible", l, lam, 2, seed, fmt, "--det")
            yield _compute("fbo", 0, "", 2, seed, fmt)
            yield _compute("theta", 0, "", 1, seed, fmt)
            yield _compute("fock-trace", 0, "", 2, seed, fmt)
    # three points, and seeds 20 and 31, whose points are removable
    # singularities of the two-point kernel
    for n, seeds in ((3, (0, 3)), (2, (20, 31))):
        for seed in seeds:
            yield _compute("gl", 1, "1", n, seed, "json")
            yield _compute("fbo", 0, "", n, seed, "json")
    # the one-point kernel, at seeds 20 and 31 too
    for seed in (0, 3, 20, 31):
        yield _compute("fbo", 0, "", 1, seed, "json")
        yield _compute("gl", 1, "1", 1, seed, "json")
    # the charge-graded trace and a pair block at the same singular points
    for seed in (20, 31):
        for n in (2, 3):
            yield _compute("fock-trace", 0, "", n, seed, "json")
        yield _compute("d-sum", 1, "1", 2, seed, "json")
    for fmt in ("json", "text"):
        qdim = ("qdim", "--l", "2", "--lambda", "1", "--order", "4",
                "--format", fmt)
        yield qdim
        yield (*qdim, "--det")
        yield (*qdim, "--irreducible")
        yield (*qdim, "--sector", "minus", "--form", "product")
    for grading in ((), ("--z-grading",)):
        for seed in (0, 3):
            yield ("oracle", "--l", "1", "--n", "2", "--order", "3",
                   "--mode", "eval", "--seed", str(seed), *grading)
    yield ("verify", "--suite", "all", "--mode", "eval", "--seed", "3",
           "--order", "4")


CASES = tuple(_cases())


def digest(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest()


PINS = {
    "compute --family gl --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format json":
        "043226f5ccc416730c09a238e8b7131c36c9b85a6cd6d9357def917e6e05e92b",
    "compute --family d-sum --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format json":
        "0cb1884445210f67058e9c88b09daf57fae94fabd498b14d425a7bbee50088bf",
    "compute --family d-twisted --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format json":
        "a410d08649138d947ffe2167a7aa69a998677841b2b9cae0c67778dbcbcd62a1",
    "compute --family d-irreducible --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format json":
        "f0cf488a6ae9c0d0be4c829add41402dde45da9b7eaa915dc470f1c6768e6bd6",
    "compute --family d-irreducible --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format json --det":
        "e3723fe1cfc2e37e76fe89582be2f95bfca79431ee601e57f1c281cf1758cef4",
    "compute --family gl --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 0 --format json":
        "c02e237335c0425fb555f19c079637f6e465fd24848a3c00e07e661a2504896c",
    "compute --family d-sum --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 0 --format json":
        "3525a9d0983af824c597264c099394dcb9e10c837f85e908de3b90179755b9c8",
    "compute --family d-twisted --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 0 --format json":
        "a5208d3e1e2b670b713129dc912c360bd94c423ceb9b0ec68d0d53a5e1050e3b",
    "compute --family d-irreducible --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 0 --format json":
        "6a453099242d803d2e73bf15eb23be626e7827b135362c9cc9b0f4a271300967",
    "compute --family d-irreducible --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 0 --format json --det":
        "edf76b61f70053c00cbae3eceaa7c7abb3f1cf3009184a6976b05a99bd1c4d89",
    "compute --family fbo --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format json":
        "8e2f0c1caee1d08cdcd8289e8cd9249be272418b525ffc620c0564caa22b012c",
    "compute --family theta --l 0 --lambda  --n 1 --order 3 --mode eval --seed 0 --format json":
        "fa8d194f8ae95e14f729ba5f981b5ab949642bd8aa5f49f12f7d24d5aea63ac9",
    "compute --family fock-trace --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format json":
        "3a57ffe66ccfa1e8a0c6292fdf6b6fc92d8fe0ad7a08ae0df4f1baab4a689e89",
    "compute --family gl --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format text":
        "ae9088e61d611a2f09485128a6c207c32c884300ba94c4815e3c87236da66602",
    "compute --family d-sum --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format text":
        "61f91546fcd083e92526e25da06ca64b25f34b86b1c19217558757d3ce74474e",
    "compute --family d-twisted --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format text":
        "3da6e535d6463081998adeb1ff283813408f915d43657040bfa790ea29c678fc",
    "compute --family d-irreducible --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format text":
        "fb2862bcb913c44c815e11898ad9ee47ea0ec1a2e13c33d34afd02c265246860",
    "compute --family d-irreducible --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format text --det":
        "d404c6ce2d69046da811d40300701f118f105f2893fb31dbdbf3c134188d9a78",
    "compute --family gl --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 0 --format text":
        "8bc609df6b28d47e372432ff806d266ba956c885f1465720bd96c898f6e364f8",
    "compute --family d-sum --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 0 --format text":
        "97f5cd3670fc2b726d09db1aace8722707134c6dc9bfea8fc5e0f183fe80ec4a",
    "compute --family d-twisted --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 0 --format text":
        "a652058a3222f42086015b454b83dc8e622348313e184c32f36f3ad8d5cc66cd",
    "compute --family d-irreducible --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 0 --format text":
        "ed01e253c93f0038b51b92c0925374f6c18753b474ac5baaaaa7a9fc9f27c274",
    "compute --family d-irreducible --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 0 --format text --det":
        "e3fc2554dcc3d9683008ee60b0717ba4c19ee3bb23a3e5a43fb504debd2ced8f",
    "compute --family fbo --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format text":
        "59300db823182ef9df0c74c7e4b1df6df06977c20d7379b231186e683702d339",
    "compute --family theta --l 0 --lambda  --n 1 --order 3 --mode eval --seed 0 --format text":
        "70a3225ee29a9c421b447490fc2865c6cba535631f650579722b1acc560ab4e6",
    "compute --family fock-trace --l 0 --lambda  --n 2 --order 3 --mode eval --seed 0 --format text":
        "06cc859d4c96dc05d51006a463bb05fdbfccf104debeaffce2f04962f39ddb0d",
    "compute --family gl --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format json":
        "ea96b3249b245e03a5b265fade1fe5e489bc8cda9ca3c2b2a4d6f69dd7266f05",
    "compute --family d-sum --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format json":
        "eead9943950a4f9befef65f84645e031d0b37beb7d28b5a0f663e8392e87e62d",
    "compute --family d-twisted --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format json":
        "9f9325c1840d3b569a5690d855420f65b25cdd45387e4b3cd492ef7326b2c355",
    "compute --family d-irreducible --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format json":
        "de9724a420fe259c6af02ce6b2261093cb9a5f181c898df40cc0eb16a4482ddb",
    "compute --family d-irreducible --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format json --det":
        "ecfe1fa499bf82cf903de53f99a986faccef8c8d4c7f2f6083cce6dfd1ec5116",
    "compute --family gl --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 3 --format json":
        "ec7e16bb0b9786cd07110633dc24986e7a41d0674fbfad63247435a171ad2ded",
    "compute --family d-sum --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 3 --format json":
        "030648acd418e1387118cf94d0b5c59d254b7168644c4b11c35fd881818c4706",
    "compute --family d-twisted --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 3 --format json":
        "00c9d9a58fdc79e35f9b0622dc2f5049b9540d0eb2a13c256e59e75e5b8300f5",
    "compute --family d-irreducible --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 3 --format json":
        "acf309f5f826b2d399bd318be1dfe9f15aa5746e4a32ba8e5895d01c59659de4",
    "compute --family d-irreducible --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 3 --format json --det":
        "cbfc07cbf17b59383597c3c2312bd8ee07188ce05070e4e1ec7845c82a0b5a2c",
    "compute --family fbo --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format json":
        "7ed17f18fcc5e467cc2d88563ed80f08fc0a357748d1149fc779efba6d9b0980",
    "compute --family theta --l 0 --lambda  --n 1 --order 3 --mode eval --seed 3 --format json":
        "527b3239996742f240b3207c37814298aefe6f0328a5d05dc475d6cefe9947fe",
    "compute --family fock-trace --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format json":
        "0b68d198305f8422acbc305ebf4c9963b945511a9ed162e7f6784ae477bce40b",
    "compute --family gl --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format text":
        "deaa87d7c94b966de10965a7c7f0b4a9898c29706c059e83e32c64ee8ecfd350",
    "compute --family d-sum --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format text":
        "635b0a2b5243f20d4997eba5bd23f1f06c7668112e9e2a081f62e506d3c38d49",
    "compute --family d-twisted --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format text":
        "b76161cabef02536be2e439255e57ed6c745727d2697d66dd53f5854cce9792c",
    "compute --family d-irreducible --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format text":
        "fc09966fd846fcebe48317b8c477bdd41a3fa9c5a30effbd4969cef893a3b44c",
    "compute --family d-irreducible --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format text --det":
        "ebf783039eb82ee07580bca9b8f0119a5d42a4017604f6058b94ece1ba99a371",
    "compute --family gl --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 3 --format text":
        "7c64cb5f6c7eee01993b7ee7253080ba5e993e5561ff2484cbac7025c5d935cb",
    "compute --family d-sum --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 3 --format text":
        "e29a9e9b2d0800601a696d437e8578b340b4fdffed5f605f653ca21e96c4bd64",
    "compute --family d-twisted --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 3 --format text":
        "ce309a3e1ddf73d7deb2861fa1445969c9b2c676ed897dfd5cf96f81ed2e1754",
    "compute --family d-irreducible --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 3 --format text":
        "d960a23a99650a4c86aa564ac769738fbf971e930bd8fe63f8da3a08f236438a",
    "compute --family d-irreducible --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 3 --format text --det":
        "aeb573ece9415c58290fc1887027de40315f8545e0b66347bbdcd769615dcc42",
    "compute --family fbo --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format text":
        "203f471005c97a467647fbfd52cb626eb1bf1ee9c1969830f372230bfede5397",
    "compute --family theta --l 0 --lambda  --n 1 --order 3 --mode eval --seed 3 --format text":
        "49cad48b2440c90c81b1f95c28d2c138b574e4ec1323bf891a37c6bc6763e6ec",
    "compute --family fock-trace --l 0 --lambda  --n 2 --order 3 --mode eval --seed 3 --format text":
        "0e26b4d71a212c68882665c3576d66b35176f7588a7af188bb2da41077bdcec4",
    "compute --family gl --l 1 --lambda 1 --n 3 --order 3 --mode eval --seed 0 --format json":
        "5e873205430208fa294ac38b08b8dbf921c7a36bc3f8c1c615b4aa6898d2a504",
    "compute --family fbo --l 0 --lambda  --n 3 --order 3 --mode eval --seed 0 --format json":
        "a3738dfce3943641d41b9245bf9aacbbca7967c379645fcf4126766d4c0f70aa",
    "compute --family gl --l 1 --lambda 1 --n 3 --order 3 --mode eval --seed 3 --format json":
        "5eef64558abb2c1fd3a38162f4f7b608acb32bf036e1f20e98c24fcb5f633279",
    "compute --family fbo --l 0 --lambda  --n 3 --order 3 --mode eval --seed 3 --format json":
        "d14307e8b0cb04fbf722c0fa2d9bd5f531a0dfeaeecc80247b06c07491acacf2",
    "compute --family gl --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 20 --format json":
        "002be8b2df733387bc289bc75f28b5f6c74a24174a217ab011fc3c1504606262",
    "compute --family fbo --l 0 --lambda  --n 2 --order 3 --mode eval --seed 20 --format json":
        "f774e6a99cc5fbd48f9c6ed43967736fd685afaa07d4cf5486bc403b702a1c35",
    "compute --family gl --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 31 --format json":
        "87d73f3affc941af95fa66270ea5d32b3968c5784d193b4aebb1e760f589c520",
    "compute --family fbo --l 0 --lambda  --n 2 --order 3 --mode eval --seed 31 --format json":
        "5cc02ba61ee8844c79a8e914b0f54a455f80cd5d26c5a9b7a04c6498d16b0580",
    "compute --family fock-trace --l 0 --lambda  --n 2 --order 3 --mode eval --seed 20 --format json":
        "b899829afe1e9562126de889134f444636c869abac792d3e5068896b691f0958",
    "compute --family fock-trace --l 0 --lambda  --n 3 --order 3 --mode eval --seed 20 --format json":
        "567462cd42aa598461bdc6fe1dcf6f53016fcb1cdc775012a12f0e1a31445086",
    "compute --family d-sum --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 20 --format json":
        "d3a78b321e2a6d2f64637d436f049c74baa41e15209763bfdb8850efd741acda",
    "compute --family fock-trace --l 0 --lambda  --n 2 --order 3 --mode eval --seed 31 --format json":
        "1f803f84c9b1cc28321e9c3f7b6acc541d02f59dd883c93081c5e3c31df29d7e",
    "compute --family fock-trace --l 0 --lambda  --n 3 --order 3 --mode eval --seed 31 --format json":
        "67f4ddc4943aa5d43876e6e51af16db0ce6204729c056122b71205d68d986cd9",
    "compute --family d-sum --l 1 --lambda 1 --n 2 --order 3 --mode eval --seed 31 --format json":
        "9956a285c1a92e84eb32805cfef03ce1e68baa7ce49624eff0b5473fcde1a48c",
    "qdim --l 2 --lambda 1 --order 4 --format json":
        "ee3b3961330d6d09563e8d8ff999e0a28f959a4658e16c6faaab05c30885e068",
    "qdim --l 2 --lambda 1 --order 4 --format json --det":
        "0b22d934c0e7c3216607c7458e1ceaadee8e6bf1255aef2057feeb2143209149",
    "qdim --l 2 --lambda 1 --order 4 --format json --irreducible":
        "acf77dc411c1cdab65403327519f661d3b26be150d5d9df3360d042a7175156d",
    "qdim --l 2 --lambda 1 --order 4 --format json --sector minus --form product":
        "fdfdba2318ba58f9e964e564db4ea8e19e240057723522b24c48fd8f0c6f1726",
    "qdim --l 2 --lambda 1 --order 4 --format text":
        "984ba1f8b8e2277be39c3267382427288e63fae158ff337eb05b4ab91e2101d1",
    "qdim --l 2 --lambda 1 --order 4 --format text --det":
        "e4810897f2322741aa3591a4cad853cee2ed01b985aebdf85dee6332d0db65ff",
    "qdim --l 2 --lambda 1 --order 4 --format text --irreducible":
        "5f272a09b91380f1e1b2e1e18db5bd5c227d2b2aff3bfe06d61d191bf8210b5b",
    "qdim --l 2 --lambda 1 --order 4 --format text --sector minus --form product":
        "a676bbfc5485811fe691d6e487acae9c16a6d488ff1be15558a184d494c1bdc3",
    "oracle --l 1 --n 2 --order 3 --mode eval --seed 0":
        "1ce0b6d38048462c5418fff6aebcdfd241c0e38ec669dddcdff211369ce2d8ac",
    "oracle --l 1 --n 2 --order 3 --mode eval --seed 3":
        "30896072af1dfc10ce5c331a8f5b91a9bf46d040f744618f3392d7cfe7be8fca",
    "oracle --l 1 --n 2 --order 3 --mode eval --seed 0 --z-grading":
        "9692e1af79fa88571897f2d8473744ef9009c2bfa09186f693f1e5f8fb29cea4",
    "oracle --l 1 --n 2 --order 3 --mode eval --seed 3 --z-grading":
        "d8463c1bb6a326b0a62369081bbc273433dd768afc244598f73ec4861461eb5d",
    "verify --suite all --mode eval --seed 3 --order 4":
        "41fc41977154536f825434e6f6c2bf3b463864246f8dfb8f57da57b3e17f016b",
    "compute --family fbo --l 0 --lambda  --n 1 --order 3 --mode eval --seed 0 --format json":
        "31ff843b9cecb8f24ce6f2834948c3d631c7187b7f8b73bca6791377fd912879",
    "compute --family gl --l 1 --lambda 1 --n 1 --order 3 --mode eval --seed 0 --format json":
        "050f7a6c479f598917b3eb044ad89d20770eb9551a800d21f5f494ccf12b3862",
    "compute --family fbo --l 0 --lambda  --n 1 --order 3 --mode eval --seed 3 --format json":
        "b805d267340d9b5879201afe7253a72aefe58d692653f90620c718f75d2fbbe8",
    "compute --family gl --l 1 --lambda 1 --n 1 --order 3 --mode eval --seed 3 --format json":
        "7bbf47d56f9760c3dc5ad6a309b455275840d00d8bf71b5b06d6b5fa43c3256f",
    "compute --family fbo --l 0 --lambda  --n 1 --order 3 --mode eval --seed 20 --format json":
        "99c437e359135739aaddea0a975a233ec09dd43f91b40ca80e99d057b8a89305",
    "compute --family gl --l 1 --lambda 1 --n 1 --order 3 --mode eval --seed 20 --format json":
        "fa695a7ed11f5e984651cc7b1bb1d3af980e9e312d4610e4a5858bea9b4350ab",
    "compute --family fbo --l 0 --lambda  --n 1 --order 3 --mode eval --seed 31 --format json":
        "b805d267340d9b5879201afe7253a72aefe58d692653f90620c718f75d2fbbe8",
    "compute --family gl --l 1 --lambda 1 --n 1 --order 3 --mode eval --seed 31 --format json":
        "7bbf47d56f9760c3dc5ad6a309b455275840d00d8bf71b5b06d6b5fa43c3256f",
}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_eval_output_bytes_are_pinned(argv):
    assert digest(argv) == PINS[" ".join(argv)]
