"""Byte pins of the symbolic verify run, the symbolic one-point kernel, the
symbolic theta function, the Weyl sums at rank 3 and the oracle's parity
options.

Each case runs one qfock command in process and compares the SHA-256 of its
exit code and stdout with a digest recorded from an earlier version of the
code, in which the oracle enumerated the states once per parity option.
The oracle cases cover every combination of --parity-sign and --projector,
symbolic and at a bound point, with and without charge grading, on a space
with a neutral fermion, on one without (where the parity counts every
excitation), and on one with no pairs.
"""

import pytest

from test_cli_eval_pins import digest


def _cases():
    yield ("verify", "--suite", "all")
    for fmt in ("json", "text"):
        yield ("compute", "--family", "fbo", "--n", "1", "--order", "5",
               "--format", fmt)
        yield ("compute", "--family", "theta", "--n", "1", "--order", "4",
               "--format", fmt)
    # the signed sums over W(B_3), both characters and both readings
    qdim = ("qdim", "--l", "3", "--lambda", "2,1", "--order", "5")
    for sector in ("plus", "minus"):
        for reading in ("corrected", "as-printed"):
            yield (*qdim, "--sector", sector, "--reading", reading)
    yield (*qdim, "--det")
    yield ("compute", "--family", "q-minus", "--l", "3", "--lambda", "1",
           "--order", "5", "--form", "weyl-sum")
    for space in (("--l", "1", "--n", "1"),
                  ("--l", "1", "--n", "1", "--pairs-only"),
                  ("--l", "0", "--n", "2")):
        for sign in ((), ("--parity-sign",)):
            for projector in ((), ("--projector", "even"),
                              ("--projector", "odd")):
                for mode in ((), ("--mode", "eval", "--seed", "5")):
                    for grading in ((), ("--z-grading",)):
                        yield ("oracle", *space, "--order", "3", *sign,
                               *projector, *mode, *grading)


CASES = tuple(_cases())


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_bytes_are_pinned(argv):
    assert digest(argv) == PINS[" ".join(argv)]


PINS = {
    "verify --suite all":
        "cab7e305261a0a08c874985cd73a60c928bdc8ef9ae7bfe6b60ccffab4e1ae88",
    "compute --family fbo --n 1 --order 5 --format json":
        "53009472c72c71d569c0313b5ef6e78af7156e7e9ba1051837e2ff09440ba74f",
    "compute --family fbo --n 1 --order 5 --format text":
        "ee73b008b15efa4162d2b14d1a6a119533072850586da67f7068eb5e6efe18a0",
    "compute --family theta --n 1 --order 4 --format json":
        "fd24a25951fec5af56a8c090f56e79d52fae1a5efd44507cf3cdc3e6639efcf3",
    "compute --family theta --n 1 --order 4 --format text":
        "e336a0bb5e7c9e827def44720c601a28fd816f78658951ba8eaeaa3d595121d2",
    "qdim --l 3 --lambda 2,1 --order 5 --sector plus --reading corrected":
        "73a3c19522b24c17772018b23743f08e5f9357ee56dce269996a7fc6007e870a",
    "qdim --l 3 --lambda 2,1 --order 5 --sector plus --reading as-printed":
        "66993351447b451d6e316483402c750d3d969bc45962368990e514650afc32c7",
    "qdim --l 3 --lambda 2,1 --order 5 --sector minus --reading corrected":
        "6fb09cfee4f6d5018497e670d84e932246afaa90c7db3820318121b6ef76a0ff",
    "qdim --l 3 --lambda 2,1 --order 5 --sector minus --reading as-printed":
        "786fe44587733419b1fa517b584902de45fadc05b98b972dfa25af59bfd3071c",
    "qdim --l 3 --lambda 2,1 --order 5 --det":
        "3eecae3f978366ae9ff103470da9ea074d166583739daaaa9015ded7a6f1914d",
    "compute --family q-minus --l 3 --lambda 1 --order 5 --form weyl-sum":
        "307eb1b0ac2a7b40cac5134f77c62c3c19f69af179833bfc5a8a66e464ff2851",
    "oracle --l 1 --n 1 --order 3":
        "42058603ed5264f395d03e017e9a77b91e09354d24334c1fe2b80466e08e5a92",
    "oracle --l 1 --n 1 --order 3 --z-grading":
        "c089cd8cbe70a9eb9ee57dcc3f652eaa5beb76f7d73006315aa87e26b4f234d7",
    "oracle --l 1 --n 1 --order 3 --mode eval --seed 5":
        "b09b817870f397efa301cbca87985a6b5117437cd70e75897d99b83c14457140",
    "oracle --l 1 --n 1 --order 3 --mode eval --seed 5 --z-grading":
        "950c220e8438cce3f466a5d8c3ff1fc1e5682fbbb4f5115212a8436eeab302de",
    "oracle --l 1 --n 1 --order 3 --projector even":
        "a75784eab2bd5acb858896eebac4c10661b61aa21155ddaab2f9c0cfdba70c57",
    "oracle --l 1 --n 1 --order 3 --projector even --z-grading":
        "853633f364537b2d6eaf051e42efa9e3f2f1cea8b18ddc36f9e2db89c63a8eb4",
    "oracle --l 1 --n 1 --order 3 --projector even --mode eval --seed 5":
        "72378462c66c6431a93862cebff316b1be0dd05374df8618bfa00251990b316e",
    "oracle --l 1 --n 1 --order 3 --projector even --mode eval --seed 5 --z-grading":
        "5c7a7a78f97858b53bb746f8ec7d489f48bdcd8d0c36655e60404862b3ced45d",
    "oracle --l 1 --n 1 --order 3 --projector odd":
        "161441dc9bd0032fb407ba7b9022751d7b696ba70b4046250d0f13dd3a3d638b",
    "oracle --l 1 --n 1 --order 3 --projector odd --z-grading":
        "d694e9c3b07685960c52593dde1ddf26af030df6a627bfca35a6c77e291d02e6",
    "oracle --l 1 --n 1 --order 3 --projector odd --mode eval --seed 5":
        "f39acb350b75e2d4e23e450df1eeea8b58d6159a1e324514e7c8ea5cea13d814",
    "oracle --l 1 --n 1 --order 3 --projector odd --mode eval --seed 5 --z-grading":
        "d0a822cb2e5f52b955a444bf423fc922a263f49c92c11d724a78c1f67606b998",
    "oracle --l 1 --n 1 --order 3 --parity-sign":
        "6e3d55c70f215eb3cfba413467a42a44c266980da447740e5c5651a8d384ba5e",
    "oracle --l 1 --n 1 --order 3 --parity-sign --z-grading":
        "ad9df8048fdc264a6523454fe00ccaca5ff0379059c3d543ec5cbe9d703851cc",
    "oracle --l 1 --n 1 --order 3 --parity-sign --mode eval --seed 5":
        "d40d229108ecbecff641050809d1a4ab73534f99945e934b4316a48eeb792db7",
    "oracle --l 1 --n 1 --order 3 --parity-sign --mode eval --seed 5 --z-grading":
        "8bacaf26b13938de8d02cd20d850defdf4332011067def76276ed55111551527",
    "oracle --l 1 --n 1 --order 3 --parity-sign --projector even":
        "a75784eab2bd5acb858896eebac4c10661b61aa21155ddaab2f9c0cfdba70c57",
    "oracle --l 1 --n 1 --order 3 --parity-sign --projector even --z-grading":
        "853633f364537b2d6eaf051e42efa9e3f2f1cea8b18ddc36f9e2db89c63a8eb4",
    "oracle --l 1 --n 1 --order 3 --parity-sign --projector even --mode eval --seed 5":
        "72378462c66c6431a93862cebff316b1be0dd05374df8618bfa00251990b316e",
    "oracle --l 1 --n 1 --order 3 --parity-sign --projector even --mode eval --seed 5 --z-grading":
        "5c7a7a78f97858b53bb746f8ec7d489f48bdcd8d0c36655e60404862b3ced45d",
    "oracle --l 1 --n 1 --order 3 --parity-sign --projector odd":
        "4dbdf0b0aa617a3e31fabfc649eac7781f5159590fcea975308d976ab8aa7a4f",
    "oracle --l 1 --n 1 --order 3 --parity-sign --projector odd --z-grading":
        "c5f2f61e8df0da9295f6e70f451e999f42b95ce9fea49f2ab5e2c64ef6cc52a8",
    "oracle --l 1 --n 1 --order 3 --parity-sign --projector odd --mode eval --seed 5":
        "1965620fb81d6b87e86776275873d0e74d71249f04e02ed550f60e3a879bcb7f",
    "oracle --l 1 --n 1 --order 3 --parity-sign --projector odd --mode eval --seed 5 --z-grading":
        "e08b84270976d8aa7ba415cd1067c2c6eab84bda78a33704bae22b4d86a21fc7",
    "oracle --l 1 --n 1 --pairs-only --order 3":
        "e672c8b0a613e631c5c637e4ead69990b944b34f3fcfa36720f7341700f0875a",
    "oracle --l 1 --n 1 --pairs-only --order 3 --z-grading":
        "fa9ad4b2a8f632bee12b49985b82a6aad4882310b406f0d0f97141938b43b278",
    "oracle --l 1 --n 1 --pairs-only --order 3 --mode eval --seed 5":
        "968ebcac7b9d8243516ccb562f986e4dbaf7e5502aefb28a0e1c6dc065d2ebf7",
    "oracle --l 1 --n 1 --pairs-only --order 3 --mode eval --seed 5 --z-grading":
        "4fedfc77debd68590705437c2077f87a03d1cb148d6211981108a3bbe8263e45",
    "oracle --l 1 --n 1 --pairs-only --order 3 --projector even":
        "e3ee554be95bd448b1b31f30b11f804ae8da59f44ac2aa8fd2b6eb402c37f9d7",
    "oracle --l 1 --n 1 --pairs-only --order 3 --projector even --z-grading":
        "656bc87317b118c47ea6a6c2c89c4935c8d1207bd24408a8b1eead54a98cf562",
    "oracle --l 1 --n 1 --pairs-only --order 3 --projector even --mode eval --seed 5":
        "f2cf3c5a4ccbbae30d1d579ac7892fb168af9e41dd0e0bc865ad225b906744f6",
    "oracle --l 1 --n 1 --pairs-only --order 3 --projector even --mode eval --seed 5 --z-grading":
        "7532a89faaf6a4467a47a322de41b18a11fa3a8fda795b3a1856a1ece7b5c527",
    "oracle --l 1 --n 1 --pairs-only --order 3 --projector odd":
        "e26a1d2494688f52e036a80c6f821d2fc16942003f1d8907bbdc5bc71d519cbf",
    "oracle --l 1 --n 1 --pairs-only --order 3 --projector odd --z-grading":
        "10a4caa8ffb1be123818f84e3b08d660243a1d2aeb0cdaa093da44bf618c7736",
    "oracle --l 1 --n 1 --pairs-only --order 3 --projector odd --mode eval --seed 5":
        "362258a70a409572fc55bd9a5d54404df27c43f86dd915a3c3458598489d6d5d",
    "oracle --l 1 --n 1 --pairs-only --order 3 --projector odd --mode eval --seed 5 --z-grading":
        "c9125d65844bd0aa274f82f25464dacda33dce1768c7ef5dbcd651cc848f3017",
    "oracle --l 1 --n 1 --pairs-only --order 3 --parity-sign":
        "7424b0defcce904cbe3982ba5d788358d469b9dc1d3d9df30a5aba7519504efe",
    "oracle --l 1 --n 1 --pairs-only --order 3 --parity-sign --z-grading":
        "09dfab29020f11bbb2a74fbfa7812dcc5fd7f39efa335e293b3dddd2e8bcbea3",
    "oracle --l 1 --n 1 --pairs-only --order 3 --parity-sign --mode eval --seed 5":
        "173328f9e7dd2c8c60bc8b59fd3d7b73b32393de75bcee3e29343747edd04a47",
    "oracle --l 1 --n 1 --pairs-only --order 3 --parity-sign --mode eval --seed 5 --z-grading":
        "da788cbdfd557b7006f38cecfe8a9151227755fe9ac7d62ce71863ab984c100f",
    "oracle --l 1 --n 1 --pairs-only --order 3 --parity-sign --projector even":
        "e3ee554be95bd448b1b31f30b11f804ae8da59f44ac2aa8fd2b6eb402c37f9d7",
    "oracle --l 1 --n 1 --pairs-only --order 3 --parity-sign --projector even --z-grading":
        "656bc87317b118c47ea6a6c2c89c4935c8d1207bd24408a8b1eead54a98cf562",
    "oracle --l 1 --n 1 --pairs-only --order 3 --parity-sign --projector even --mode eval --seed 5":
        "f2cf3c5a4ccbbae30d1d579ac7892fb168af9e41dd0e0bc865ad225b906744f6",
    "oracle --l 1 --n 1 --pairs-only --order 3 --parity-sign --projector even --mode eval --seed 5 --z-grading":
        "7532a89faaf6a4467a47a322de41b18a11fa3a8fda795b3a1856a1ece7b5c527",
    "oracle --l 1 --n 1 --pairs-only --order 3 --parity-sign --projector odd":
        "d625feabfbc47452fc1229fd50ec0bff9c4061b05c72fa742bdeaa3d6398c017",
    "oracle --l 1 --n 1 --pairs-only --order 3 --parity-sign --projector odd --z-grading":
        "f36f6923a4a017e18add7f9ed66f85a7673ba83a7512e0901ccfd3364626e839",
    "oracle --l 1 --n 1 --pairs-only --order 3 --parity-sign --projector odd --mode eval --seed 5":
        "9184f0b8da064a72bb2ef47a970dae79f55950c743954739b93fa3bc45f4d6f7",
    "oracle --l 1 --n 1 --pairs-only --order 3 --parity-sign --projector odd --mode eval --seed 5 --z-grading":
        "9a7f6f54478c790d8635f1d5d9ad3bac709c26a4baf9ebd241fdc49343771dd5",
    "oracle --l 0 --n 2 --order 3":
        "b4742630e97a4bf6a86b6e0416a0e6ac4570687acdac00a66851808ae484395b",
    "oracle --l 0 --n 2 --order 3 --z-grading":
        "b4742630e97a4bf6a86b6e0416a0e6ac4570687acdac00a66851808ae484395b",
    "oracle --l 0 --n 2 --order 3 --mode eval --seed 5":
        "d78b89f504084246c6585ef6b8f2e18a0ee8b311b1232f68d973628dcad834d0",
    "oracle --l 0 --n 2 --order 3 --mode eval --seed 5 --z-grading":
        "d78b89f504084246c6585ef6b8f2e18a0ee8b311b1232f68d973628dcad834d0",
    "oracle --l 0 --n 2 --order 3 --projector even":
        "71746e95b1ed17cb97f56242765d529bdd70a30e7c521da99b537558eaaeff39",
    "oracle --l 0 --n 2 --order 3 --projector even --z-grading":
        "71746e95b1ed17cb97f56242765d529bdd70a30e7c521da99b537558eaaeff39",
    "oracle --l 0 --n 2 --order 3 --projector even --mode eval --seed 5":
        "77882ba7f7b4f0156b158fa98b77a04cf539d00a93c375646e7547619d7a66e5",
    "oracle --l 0 --n 2 --order 3 --projector even --mode eval --seed 5 --z-grading":
        "77882ba7f7b4f0156b158fa98b77a04cf539d00a93c375646e7547619d7a66e5",
    "oracle --l 0 --n 2 --order 3 --projector odd":
        "2f6dc2f7ed088054c1c2455db0efe1e5db114dc85353dd58f9d070e493859584",
    "oracle --l 0 --n 2 --order 3 --projector odd --z-grading":
        "2f6dc2f7ed088054c1c2455db0efe1e5db114dc85353dd58f9d070e493859584",
    "oracle --l 0 --n 2 --order 3 --projector odd --mode eval --seed 5":
        "b0cb9f5acc74783e2fd6737ea9608c0127fac731f9fc0544098d999d97b326e4",
    "oracle --l 0 --n 2 --order 3 --projector odd --mode eval --seed 5 --z-grading":
        "b0cb9f5acc74783e2fd6737ea9608c0127fac731f9fc0544098d999d97b326e4",
    "oracle --l 0 --n 2 --order 3 --parity-sign":
        "d0a22eb2dc700de8b3d2fb1b8b4900f4cd39d4ee27a09b10579addaf7f039d57",
    "oracle --l 0 --n 2 --order 3 --parity-sign --z-grading":
        "d0a22eb2dc700de8b3d2fb1b8b4900f4cd39d4ee27a09b10579addaf7f039d57",
    "oracle --l 0 --n 2 --order 3 --parity-sign --mode eval --seed 5":
        "e82c29e75d52f31832bd5d7f8ba0ba772f9683d5a6f7807a87c3c239a09f6f54",
    "oracle --l 0 --n 2 --order 3 --parity-sign --mode eval --seed 5 --z-grading":
        "e82c29e75d52f31832bd5d7f8ba0ba772f9683d5a6f7807a87c3c239a09f6f54",
    "oracle --l 0 --n 2 --order 3 --parity-sign --projector even":
        "71746e95b1ed17cb97f56242765d529bdd70a30e7c521da99b537558eaaeff39",
    "oracle --l 0 --n 2 --order 3 --parity-sign --projector even --z-grading":
        "71746e95b1ed17cb97f56242765d529bdd70a30e7c521da99b537558eaaeff39",
    "oracle --l 0 --n 2 --order 3 --parity-sign --projector even --mode eval --seed 5":
        "77882ba7f7b4f0156b158fa98b77a04cf539d00a93c375646e7547619d7a66e5",
    "oracle --l 0 --n 2 --order 3 --parity-sign --projector even --mode eval --seed 5 --z-grading":
        "77882ba7f7b4f0156b158fa98b77a04cf539d00a93c375646e7547619d7a66e5",
    "oracle --l 0 --n 2 --order 3 --parity-sign --projector odd":
        "afd9186d7555ca75dd807e9602f242b29b45b3ddb2a83d5c508904a4e4f9dec4",
    "oracle --l 0 --n 2 --order 3 --parity-sign --projector odd --z-grading":
        "afd9186d7555ca75dd807e9602f242b29b45b3ddb2a83d5c508904a4e4f9dec4",
    "oracle --l 0 --n 2 --order 3 --parity-sign --projector odd --mode eval --seed 5":
        "e753b4127bad2b6962a8470dcb48dc2282cb24055ac9450d690c5b82fa3e9436",
    "oracle --l 0 --n 2 --order 3 --parity-sign --projector odd --mode eval --seed 5 --z-grading":
        "e753b4127bad2b6962a8470dcb48dc2282cb24055ac9450d690c5b82fa3e9436",
}
