"""Golden fixture: writes into a keyed bucket, one level below the store."""


def nested_subscript_write(placement, sub):
    placement._by_node[sub.node_id][id(sub)] = sub  # line 5


def nested_subscript_delete(placement, join_id, key):
    del placement._by_join[join_id][key]  # line 9


def nested_mutating_call(placement, replica_id, key):
    placement._by_replica[replica_id].pop(key, None)  # line 13


def nested_augmented_write(placement, node_id, key):
    placement._by_node[node_id][key] += 1  # line 17
