"""Golden fixture: nested bucket reads, and writes on the hook surface."""


class Placement:
    def __init__(self):
        self._by_node = {}

    def add(self, sub):
        self._by_node.setdefault(sub.node_id, {})[id(sub)] = sub

    def discard(self, sub):
        del self._by_node[sub.node_id][id(sub)]


def nested_reads_are_fine(placement, node_id, key):
    bucket = placement._by_node[node_id]
    present = key in placement._by_node[node_id]
    return placement._by_node[node_id].get(key), list(bucket.values()), present


def local_copies_are_fine(placement, node_id, key):
    copy = dict(placement._by_node[node_id])
    copy.pop(key, None)
    return copy
