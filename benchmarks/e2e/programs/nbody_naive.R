vget <- function(v, i) v[[i]]
vset <- function(v, i, x) { v[[i]] <- x; v }

naive_energy <- function(px, py, pz, mass, nb) {
  e <- 0.0
  for (i in 1:nb) {
    j <- i + 1L
    while (j <= nb) {
      dx <- vget(px, i) - vget(px, j)
      dy <- vget(py, i) - vget(py, j)
      dz <- vget(pz, i) - vget(pz, j)
      e <- e - vget(mass, i) * vget(mass, j) / sqrt(dx*dx + dy*dy + dz*dz)
      j <- j + 1L
    }
  }
  e
}

nbody_naive_run <- function(reps) {
  nb <- 5L
  px <- c(0, 4.84, 8.34, 12.89, 15.37)
  py <- c(0, -1.16, 4.12, -15.11, -25.91)
  pz <- c(0, -0.10, -0.40, -0.22, 0.17)
  mass <- c(39.47, 0.037, 0.011, 0.0017, 0.0020)
  e <- 0.0
  for (r in 1:reps) e <- e + naive_energy(px, py, pz, mass, nb)
  e
}
