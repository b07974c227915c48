"""Golden sha256 digests of the program's output bytes.

The embedding file, the SVG and the CLI's stdout are meant to be byte-stable
across versions. The corner coordinates come from `regular_polygon_points`,
which rounds libm's `math.cos`/`math.sin` to 12 decimal digits, so these bytes
also depend on the platform's libm: a digest that changes on a new platform
with no code change points there first.
"""

import hashlib

import pytest

from cycleregions.cli import main
from cycleregions.embedding import construct, format_embedding
from cycleregions.render import RenderOptions, to_svg

EMB = {
    3: "5750744d5ccaf110726ebb996f60b3a806b44b7248027e3fd867c617232f5617",
    4: "85b86fb31b2c073a90b0209f58ed465c30303c74aa32a33438de436a05b1ec5e",
    5: "960c28471b669b6428bbf6ae06fc302caf7ff6cf0017a27f6e2358ac51b30e19",
    6: "599d814a08921f7e21c7a089a0001bdc01042acbb307d1e043c4414f1310abe1",
    7: "acd73533f4c52da8257e74ca59f7fe1dfa35ad583702b2d2a45878bf203a050b",
    8: "c2fe966ab2740ab68cad88e98c8db4cc6155e2afb7d7561a9e151dfe3e54c5db",
    9: "210fac6d1b72fb927acc0e1d9b46806264c2c5f4b6bda432919cb0501fb35b64",
    10: "a80d8f65a55e84255292a3cb5d8fa5d070d0e49d287c2a40601687c321eda36a",
    11: "2cd150ca6c694ac7996edb95de39421c533ef17694ef029271eb627f7854ece2",
    12: "a3d2d25816e14e275446569e41a4e0d37ef8246c7a4f99e7e7914bd333aa1d5a",
    13: "2acecd959e88f960aab4e6fed1f61da489d56c5347c93f9cdeeea19818cd3472",
    14: "28a51cb683091419094cfdca43ff30611a9374383f34aa48a44c0fdcbf03becf",
    15: "0b59887d9d2ec489c225e55362f8f21bf6a0ce92a56963b6d28679d03833dfb0",
    16: "79fae18a0463359653324d48b721acdf6577b7e3472639d5e6398552efbcdcdc",
    17: "5e9c4c1d9b708646c9a17345c54b4abe5e84275602bafa31c675326fe9e7e4e9",
    18: "3c4eec87f605ce49040233cfa8630a3a994ffb1c6e55a6f9335bd01c39342e64",
    19: "695c8c225e06690809c08466f36e54251e75c11364bfadd4d07aa5d6e166b673",
    20: "1b4a5dc7990d2375c2235ff8953032186d0e4ed8ad1b0c4e99f7beb37221a393",
    21: "6bbf267fc9916ffb065eabda67584be3fba23840de4c34a1c5743ab233f5eb88",
    22: "6642196cceca8b72fb2a8eb8751cb87518cbae7ea62cee898ec91b3fcb2c872e",
    23: "01033e3911ed54e0a991ba4d18502002aa693176e8a28fceed969c104c4923e7",
    24: "39d9d985705bb2cb531244633560d9e7589aaf93f1b2c8e163209198e17b389c",
    25: "d241b6b18fa92a856d4511fca9595965f5fe172b405dbcddfbcc482778d7f46e",
    26: "2968760c270bccac7eaada04fc457f30db3490e0e6d19f3ae81872951676f87c",
    27: "ac45e2d35ab0aac7b8a1845fd94455e6ad529f7e99b8d128695acf3fc5ee9f2a",
    28: "9a536e3400ee2cb97f61a612f13579f700c463179525f5db888ea7869e560b3d",
    29: "fe92973d9ad740bb907636c7374de85e0b7f2725c6f32666ddeec3b314601466",
    30: "165e47539143202c1b4ec196120215058ec433ec5a0417ca5427d53efa72db82",
    31: "543ee6f6b738f285d1d6678ee08bb12cc30b58453d59aea7fe1e2101dd37094b",
    32: "1fcceac7908ccbc16fa0ef7ba2c2ee60c35c9d4daf0b9c4b1834eda83237e2ad",
    33: "25f3db3b20314e33bf1b7bbe453ade4bed4e5d2c2529db8a28e6f6f970c74d5b",
    34: "f3e424bb483f4fb5d9765255be4d8e8b40705d7ac3e4c8686464f31b95327eb3",
    35: "9f80354f72e6a46bdbaa47454a7bd039f673a69916623d65121f4ca22a3d2d23",
    36: "b09344a3d26b0e3a4e496756746aa280508fe981917857f47ead2d8be2563b32",
    37: "4c2b47a7bb30b6a530d5a666d45700c123f781ddb7652c5f9efe8d7ddb790dbb",
    38: "45e472b4b5b8c3a9489eae888bb14c08a40da38491504ba5e35444a1ad050940",
    39: "bc8a4751559de7da8d31c7ff2a27254ceb7f6e1527848ccbd9902a80ed4ee9c1",
    40: "150da649b3be151d5daa977624444e95fb708ef6c45c4a546c8a2624bb69c07e",
    41: "191c544f08114ad09ec2f8624eb62e8abcbb3f32c0dd642bda08108d21a41035",
}
SVG = {
    4: "299ba7a302508218ab098b3da4a385a900840a533ca94d01632d2ed897fe1a68",
    7: "19b4217fb9507e6bd99f1857cf77171d9d9c6aefaf913337cff9187338efa1f8",
    40: "654efa4a7b4c49c17e8d3346b3d7ec636aa48b2cf8f6097afbe66fb222fc3c02",
    41: "05710cf2464485feb2e72a495673d496593c8e06fd399d0d6bbb3622b668dfe9",
}
CLI = {
    ('construct', '--n', '40', '--out', 'c40.txt'): "8ef676fc0be1b01467db97a3d831068e89aaadc65d132e4c6c46ef47bb43912f",
    ('count', 'c40.txt'): "d89f7229afe538ba9af37d3c32ac42b0720659e54717b8a97e901e3d92e3fd96",
    ('construct', '--n', '41', '--out', 'c41.txt'): "f000ecf4026856be825d0f1f4c4d8e4439c44c3de7c69823f635b9b4bc69ff94",
    ('count', 'c41.txt'): "522a88646cb433b78959ab2aa843380770741329f4070980b06a0f8052ac6490",
    ('verify', '--format', 'tsv'): "ded4913bf3262e195589fda271c71e62adf54132cda2b500e502805cb10eb8ff",
    ('oracle', '--n', '10'): "cecf32143dec47226ea6f257b54413471ad8c5aefe1e178bcea198175c20bfc9",
}


def digest(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("n", sorted(EMB))
def test_embedding_file_bytes(n):
    assert digest(format_embedding(construct(n))) == EMB[n]


@pytest.mark.parametrize("n", sorted(SVG))
def test_svg_bytes(n):
    opts = RenderOptions(highlight_splitters=True, shade_regions=True)
    assert digest(to_svg(construct(n), opts)) == SVG[n]


@pytest.mark.parametrize("n", (40, 41))
def test_cli_stdout_bytes(n, tmp_path, monkeypatch, capsys):
    # A relative --out path keeps the printed `out:` line the same everywhere.
    monkeypatch.chdir(tmp_path)
    for argv in (("construct", "--n", str(n), "--out", f"c{n}.txt"), ("count", f"c{n}.txt")):
        assert main(list(argv)) == 0
        assert digest(capsys.readouterr().out) == CLI[argv]


@pytest.mark.parametrize("argv", [("verify", "--format", "tsv"), ("oracle", "--n", "10")])
def test_cli_stdout_bytes_without_files(argv, capsys):
    assert main(list(argv)) == 0
    assert digest(capsys.readouterr().out) == CLI[argv]
