"""Unit tests for URI normalization and pathname translation."""

import os

import pytest

from repro.http.errors import BadRequestError, ForbiddenError, NotFoundError
from repro.http.uri import normalize_uri, resolve_path, split_query, translate_path


class TestSplitQuery:
    def test_with_query(self):
        assert split_query("/cgi-bin/search?q=flash&x=1") == ("/cgi-bin/search", "q=flash&x=1")

    def test_without_query(self):
        assert split_query("/index.html") == ("/index.html", "")

    def test_only_first_question_mark_splits(self):
        assert split_query("/p?a=1?b=2") == ("/p", "a=1?b=2")


class TestNormalizeUri:
    def test_plain_path_unchanged(self):
        assert normalize_uri("/a/b/c.html") == "/a/b/c.html"

    def test_dot_segments_resolved(self):
        assert normalize_uri("/a/b/../c//d.html") == "/a/c/d.html"

    def test_percent_decoding(self):
        assert normalize_uri("/%7Ebob/") == "/~bob/"

    def test_trailing_slash_preserved(self):
        assert normalize_uri("/docs/") == "/docs/"

    def test_root(self):
        assert normalize_uri("/") == "/"

    def test_escape_above_root_rejected(self):
        with pytest.raises(ForbiddenError):
            normalize_uri("/../etc/passwd")

    def test_deep_escape_rejected(self):
        with pytest.raises(ForbiddenError):
            normalize_uri("/a/../../etc/passwd")

    def test_relative_uri_rejected(self):
        with pytest.raises(BadRequestError):
            normalize_uri("index.html")

    def test_nul_byte_rejected(self):
        with pytest.raises(BadRequestError):
            normalize_uri("/a%00b")


class TestTranslatePath:
    @pytest.fixture
    def docroot(self, tmp_path):
        (tmp_path / "index.html").write_text("<html>root</html>")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "index.html").write_text("<html>sub</html>")
        (tmp_path / "sub" / "page.txt").write_text("hello")
        return str(tmp_path)

    def test_plain_file(self, docroot):
        path = translate_path("/sub/page.txt", docroot)
        assert path == os.path.join(docroot, "sub", "page.txt")

    def test_directory_resolves_to_index(self, docroot):
        assert translate_path("/", docroot).endswith("index.html")
        assert translate_path("/sub/", docroot).endswith(os.path.join("sub", "index.html"))

    def test_missing_file_raises_not_found(self, docroot):
        with pytest.raises(NotFoundError):
            translate_path("/nope.html", docroot)

    def test_missing_index_raises_not_found(self, docroot, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(NotFoundError):
            translate_path("/empty/", docroot)

    def test_escape_rejected(self, docroot):
        with pytest.raises(ForbiddenError):
            translate_path("/../secret.txt", docroot)

    def test_user_dir_mapping(self, tmp_path):
        # The paper's example: /~bob -> /home/users/bob/public_html/index.html
        public = tmp_path / "home" / "bob" / "public_html"
        public.mkdir(parents=True)
        (public / "index.html").write_text("<html>bob</html>")
        path = translate_path(
            "/~bob/", str(tmp_path), user_dirs={"bob": str(public)}
        )
        assert path == str(public / "index.html")

    def test_unknown_user_dir(self, tmp_path):
        with pytest.raises(NotFoundError):
            translate_path("/~alice/", str(tmp_path), user_dirs={"bob": "/x"})

    def test_unreadable_file_raises_forbidden(self, docroot):
        target = os.path.join(docroot, "sub", "page.txt")
        os.chmod(target, 0o000)
        try:
            if os.access(target, os.R_OK):
                pytest.skip("running as root: permission bits are not enforced")
            with pytest.raises(ForbiddenError):
                translate_path("/sub/page.txt", docroot)
        finally:
            os.chmod(target, 0o644)

    def test_file_used_as_directory_raises_not_found(self, docroot):
        with pytest.raises(NotFoundError):
            translate_path("/sub/page.txt/extra", docroot)

    def test_directory_index_that_is_a_directory_raises_forbidden(self, docroot, tmp_path):
        (tmp_path / "odd" / "index.html").mkdir(parents=True)
        with pytest.raises(ForbiddenError):
            translate_path("/odd/", docroot)

    def test_non_regular_file_raises_forbidden(self, docroot, tmp_path):
        os.mkfifo(tmp_path / "pipe")
        with pytest.raises(ForbiddenError):
            translate_path("/pipe", docroot)

    def test_dangling_symlink_raises_not_found(self, docroot, tmp_path):
        os.symlink(tmp_path / "gone", tmp_path / "link")
        with pytest.raises(NotFoundError):
            translate_path("/link", docroot)

    def test_resolve_returns_the_stat_it_validated(self, docroot):
        path, stat = resolve_path("/sub/", docroot)
        assert path == os.path.join(docroot, "sub", "index.html")
        assert stat.st_size == len("<html>sub</html>")
        assert stat.st_mtime_ns == os.stat(path).st_mtime_ns

    def test_one_stat_per_file_two_per_directory(self, docroot, monkeypatch):
        walks = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            walks.append(path)
            return real_stat(path, *args, **kwargs)

        # os.path.isdir/exists/isfile are stat walks too (and count here).
        monkeypatch.setattr(os, "stat", counting_stat)
        resolve_path("/sub/page.txt", docroot)
        assert len(walks) == 1
        resolve_path("/sub/", docroot)
        assert len(walks) == 3


class TestContainment:
    """The translated path stays under its base — the document root, or the
    user's directory for a ``/~user`` URI — whether or not ``user_dirs`` is
    configured, and even if a caller hands over an unnormalized URI."""

    @pytest.fixture
    def tree(self, tmp_path):
        docroot = tmp_path / "www"
        docroot.mkdir()
        (docroot / "index.html").write_text("root")
        (tmp_path / "secret.txt").write_text("outside the docroot")
        public = tmp_path / "home" / "bob" / "public_html"
        public.mkdir(parents=True)
        (public / "index.html").write_text("bob")
        (public.parent / "private.txt").write_text("outside public_html")
        return str(docroot), {"bob": str(public)}

    @pytest.mark.parametrize("user_dirs", [None, {}, "bob"], ids=["none", "empty", "bob"])
    def test_dot_dot_is_refused_with_any_user_dirs(self, tree, user_dirs):
        docroot, bob = tree
        user_dirs = bob if user_dirs == "bob" else user_dirs
        for uri in ("/../secret.txt", "/~bob/../../secret.txt", "/~bob/../../../etc/passwd"):
            with pytest.raises(ForbiddenError):
                translate_path(uri, docroot, user_dirs=user_dirs)

    @pytest.mark.parametrize("user_dirs", [None, {}, "bob"], ids=["none", "empty", "bob"])
    def test_docroot_is_checked_behind_normalization(self, tree, user_dirs, monkeypatch):
        docroot, bob = tree
        user_dirs = bob if user_dirs == "bob" else user_dirs
        # normalize_uri refuses every ".." climb, so the containment check
        # is a second line of defence; take the first away to see it hold.
        monkeypatch.setattr("repro.http.uri.normalize_uri", lambda uri: uri)
        with pytest.raises(ForbiddenError):
            translate_path("/../secret.txt", docroot, user_dirs=user_dirs)
        assert translate_path("/", docroot, user_dirs=user_dirs).endswith("index.html")

    def test_user_uri_is_checked_against_the_users_base(self, tree, monkeypatch):
        docroot, bob = tree
        monkeypatch.setattr("repro.http.uri.normalize_uri", lambda uri: uri)
        with pytest.raises(ForbiddenError):
            translate_path("/~bob/../private.txt", docroot, user_dirs=bob)
        assert translate_path("/~bob/", docroot, user_dirs=bob).endswith("index.html")
        assert translate_path("/~bob", docroot, user_dirs=bob).endswith("index.html")
