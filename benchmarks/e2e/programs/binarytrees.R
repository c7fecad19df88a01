bt_make <- function(depth) {
  if (depth == 0L) list(NULL, NULL)
  else list(bt_make(depth - 1L), bt_make(depth - 1L))
}

bt_check <- function(node) {
  if (is.null(node[[1]])) 1L
  else 1L + bt_check(node[[1]]) + bt_check(node[[2]])
}

binarytrees_run <- function(maxdepth) {
  total <- 0L
  d <- 4L
  while (d <= maxdepth) {
    iters <- 2L ^ (maxdepth - d + 4L)
    csum <- 0L
    for (i in 1:iters) csum <- csum + bt_check(bt_make(d))
    total <- total + csum %% 100000L
    d <- d + 2L
  }
  total
}
